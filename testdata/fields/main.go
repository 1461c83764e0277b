// Command fields is the field census's fixture: the census must flag the
// four fields that are only written, and none of the three that are read.
package main

import "encoding/json"

// counters has one field for each way of only writing a field, then one
// for each way of reading one.
type counters struct {
	assigned int
	added    int
	stored   map[string]int
	appended []int
	read     int
	Tagged   int `json:"tagged"`
	method   int
}

func (c *counters) viaMethod() int { return c.method }

func main() {
	c := &counters{stored: make(map[string]int), read: 1}
	c.assigned = 2
	c.added += 3
	c.stored["k"] = 4
	c.appended = append(c.appended, 5)
	b, _ := json.Marshal(c)
	println(c.read, c.viaMethod(), len(b))
}
