package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

// TestWriteTimeoutOnStalledPeer wedges the reader side and checks the
// writer fails with the typed timeout instead of blocking forever.
func TestWriteTimeoutOnStalledPeer(t *testing.T) {
	c, _ := pair(t) // server side never reads
	reg := telemetry.New(nil)
	inst := NewInstruments(reg)
	c.SetInstruments(inst)
	c.SetWriteTimeout(150 * time.Millisecond)

	// Fill the kernel socket buffers until the deadline fires.
	payload := make([]byte, 1<<20)
	var err error
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 256 && err == nil; i++ {
		if time.Now().After(deadline) {
			t.Fatal("socket buffers never filled; cannot provoke a write timeout")
		}
		err = c.writeFrame(payload)
	}
	if err == nil {
		t.Fatal("writes to a stalled peer kept succeeding")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("error is %T (%v), want *TimeoutError", err, err)
	}
	if !te.Timeout() || te.After != 150*time.Millisecond {
		t.Fatalf("timeout error = %+v", te)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("timeout error does not satisfy the net.Error idiom: %v", err)
	}
	if got := inst.WriteTimeouts.Value(); got < 1 {
		t.Fatalf("write timeouts counted = %d, want >= 1", got)
	}
}

// TestWriteTimeoutDisabledByDefault checks an unconfigured connection
// never arms a deadline (writes to a live peer keep working).
func TestWriteTimeoutDisabledByDefault(t *testing.T) {
	c, s := pair(t)
	if c.writeTimeout != 0 {
		t.Fatalf("default write timeout = %v, want 0", c.writeTimeout)
	}
	if err := c.SendHello(Hello{Kind: PeerClient, ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecvHello(); err != nil {
		t.Fatal(err)
	}
}

// TestConnInstruments checks frames, bytes, and decode latency are
// tallied on both directions of an instrumented connection; encode
// latency is the broker encoder's, which Send leaves alone.
func TestConnInstruments(t *testing.T) {
	c, s := pair(t)
	reg := telemetry.New(nil)
	inst := NewInstruments(reg)
	c.SetInstruments(inst)
	s.SetInstruments(inst)

	pub := message.NewPublication("ADV1", 7, map[string]message.Value{
		"symbol": message.String("YHOO"),
	})
	if err := c.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := inst.FramesSent.Value(); got != 1 {
		t.Errorf("frames sent = %d, want 1", got)
	}
	if got := inst.FramesRecv.Value(); got != 1 {
		t.Errorf("frames recv = %d, want 1", got)
	}
	if sent, recv := inst.BytesSent.Value(), inst.BytesRecv.Value(); sent <= 4 || sent != recv {
		t.Errorf("bytes sent/recv = %d/%d, want equal and > 4", sent, recv)
	}
	if inst.EncodeSeconds.Count() != 0 || inst.DecodeSeconds.Count() != 1 {
		t.Errorf("encode/decode latency counts = %d/%d, want 0/1",
			inst.EncodeSeconds.Count(), inst.DecodeSeconds.Count())
	}
	// Detaching restores the no-op bundle.
	c.SetInstruments(nil)
	if err := c.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if got := inst.FramesSent.Value(); got != 1 {
		t.Errorf("detached conn still counted: frames sent = %d", got)
	}
}

// TestNilRegistryInstruments checks the disabled bundle is free of
// side effects end to end.
func TestNilRegistryInstruments(t *testing.T) {
	inst := NewInstruments(nil)
	if inst.FramesSent != nil || inst.EncodeSeconds != nil || inst.WriteTimeouts != nil {
		t.Fatal("nil registry must produce an all-nil bundle")
	}
	c, s := pair(t)
	c.SetInstruments(inst)
	if err := c.SendHello(Hello{Kind: PeerClient, ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecvHello(); err != nil {
		t.Fatal(err)
	}
}
