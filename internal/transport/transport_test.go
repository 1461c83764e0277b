package transport

import (
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"github.com/greenps/greenps/internal/bitvector"
	"github.com/greenps/greenps/internal/message"
)

// pair establishes a connected listener/dialer pair.
func pair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = l.Close() })
	var server *Conn
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := l.Accept()
		if err == nil {
			server = c
		}
	}()
	client, err := Dial(l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if server == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
	return client, server
}

func TestHelloRoundTrip(t *testing.T) {
	c, s := pair(t)
	want := Hello{Kind: PeerBroker, ID: "B1"}
	if err := c.SendHello(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.RecvHello()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hello = %+v, want %+v", got, want)
	}
}

func TestHelloRejectsInvalid(t *testing.T) {
	c, s := pair(t)
	if err := c.SendHello(Hello{Kind: "ghost", ID: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecvHello(); err == nil {
		t.Fatal("invalid peer kind accepted")
	}
	c2, s2 := pair(t)
	if err := c2.SendHello(Hello{Kind: PeerClient}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RecvHello(); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	c, s := pair(t)
	pub := message.NewPublication("ADV1", 42, map[string]message.Value{
		"symbol": message.String("YHOO"),
		"low":    message.Number(18.37),
	})
	if err := c.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
		t.Fatal(err)
	}
	env, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != message.KindPublication || env.Pub.Seq != 42 {
		t.Fatalf("round trip: %+v", env)
	}
	if !env.Pub.Attrs["low"].Equal(message.Number(18.37)) {
		t.Fatalf("attrs lost: %v", env.Pub.Attrs)
	}
}

func TestManyFramesInOrder(t *testing.T) {
	c, s := pair(t)
	const n = 500
	errCh := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			pub := message.NewPublication("A", i, map[string]message.Value{
				"i": message.Number(float64(i)),
			})
			if err := c.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub}); err != nil {
				errCh <- err
				return
			}
		}
		errCh <- nil
	}()
	for i := 0; i < n; i++ {
		env, err := s.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if env.Pub.Seq != i {
			t.Fatalf("out of order: got %d want %d", env.Pub.Seq, i)
		}
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestCleanCloseYieldsEOF(t *testing.T) {
	c, s := pair(t)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Recv(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected EOF, got %v", err)
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestBIAWithProfilesOverWire(t *testing.T) {
	c, s := pair(t)
	// Build a BIA with an embedded bit-vector profile and ensure the
	// snapshot survives the wire.
	prof := newProfileWithBits(t, "ADV1", 5, 10)
	info := message.BrokerInfo{
		ID:              "B1",
		URL:             "x",
		OutputBandwidth: 100,
		Subscriptions: []message.SubscriptionInfo{{
			Sub:     message.NewSubscription("s1", "c1", nil),
			Profile: prof,
		}},
	}
	env := &message.Envelope{Kind: message.KindBIA,
		BIA: &message.BIA{RequestID: "r", Infos: []message.BrokerInfo{info}}}
	if err := c.Send(env); err != nil {
		t.Fatal(err)
	}
	got, err := s.Recv()
	if err != nil {
		t.Fatal(err)
	}
	gp := got.BIA.Infos[0].Subscriptions[0].Profile
	if gp == nil || gp.Count() != 5 {
		t.Fatalf("profile lost on wire: %+v", gp)
	}
}

func TestFrameSizeLimit(t *testing.T) {
	c, _ := pair(t)
	if err := c.writeFrame(make([]byte, MaxFrameSize+1)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// newProfileWithBits builds a profile with n consecutive bits and the
// window observed to `window`.
func newProfileWithBits(t *testing.T, advID string, n, window int) *bitvector.Profile {
	t.Helper()
	p := bitvector.NewProfile(64)
	for i := 0; i < n; i++ {
		p.Record(advID, i)
	}
	p.Vector(advID).Observe(window - 1)
	return p
}
