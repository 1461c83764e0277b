module github.com/greenps/greenps/bench

go 1.22

require github.com/greenps/greenps v0.0.0

replace github.com/greenps/greenps => ../
