package main

import (
	"testing"
	"time"
)

func TestCPUMask(t *testing.T) {
	var m cpuMask
	m[0] = 1<<0 | 1<<3
	m[1] = 1 << 2
	got := m.cpus()
	want := []int{0, 3, 66}
	if len(got) != len(want) {
		t.Fatalf("cpus() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cpus() = %v, want %v", got, want)
		}
	}
	if one := oneCPU(66).cpus(); len(one) != 1 || one[0] != 66 {
		t.Errorf("oneCPU(66) = %v", one)
	}
}

// The calibration must produce samples, charge its own CPU time to itself
// as it goes (read live off the sampling threads' clocks, not once per
// sample), and give the pinned caller its affinity back.
func TestCalibrationSamplesAndAccounts(t *testing.T) {
	before, haveAffinity := threadAffinity()
	epoch := time.Now()
	c := startCalibration(epoch, true)
	if len(c.samplers) != 1 {
		t.Fatalf("a pinned pass runs %d samplers, want 1", len(c.samplers))
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.spentCPU() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	first := c.spentCPU()
	if first <= 0 {
		t.Fatal("the sampling thread's CPU time never became visible")
	}
	time.Sleep(5 * calibEvery)
	if later := c.spentCPU(); later <= first {
		t.Errorf("sampling CPU time did not advance: %v then %v", first, later)
	}
	end := time.Since(epoch).Nanoseconds()
	if s := c.speedOver(0, end); !(s > 0.05 && s < 20) {
		t.Errorf("host speed %v is not a plausible ratio", s)
	}
	if s := c.speedOver(end+int64(time.Hour), end+2*int64(time.Hour)); s != 1 {
		t.Errorf("speed over an interval without samples = %v, want the nominal 1", s)
	}
	c.finish()
	if after := c.spentCPU(); after < first {
		t.Errorf("CPU accounting went backwards after the threads stopped: %v < %v", after, first)
	}
	if haveAffinity {
		if now, ok := threadAffinity(); ok && now != before {
			t.Errorf("the caller's affinity was %v and is now %v", before.cpus(), now.cpus())
		}
	}
}
