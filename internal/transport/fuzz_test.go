package transport

import (
	"net"
	"testing"

	"github.com/greenps/greenps/internal/message"
)

// FuzzFrameRead feeds arbitrary bytes to the read path over an in-memory
// pipe, once as a stream of envelope frames through Recv and once as a
// hello through RecvHello. Every read gives a valid envelope — one that
// validates and encodes again — or a valid hello, or an error, never a
// panic, and the connection's private pool balances its Gets and Puts
// afterwards. The seeds in testdata/fuzz cover a truncated header, a
// length over MaxFrameSize, a truncated payload, a payload that is not
// JSON, an unknown kind, publications with extreme hop counts, an invalid
// hello and a valid hello followed by a valid publication.
func FuzzFrameRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		readPiped(t, raw, func(c *Conn) {
			for {
				env, err := c.Recv()
				if err != nil {
					return
				}
				if err := env.Validate(); err != nil {
					t.Fatalf("Recv returned an invalid envelope: %v", err)
				}
				if _, err := message.Encode(env); err != nil {
					t.Fatalf("Recv returned an envelope that does not encode: %v", err)
				}
			}
		})
		readPiped(t, raw, func(c *Conn) {
			h, err := c.RecvHello()
			if err == nil && (h.ID == "" || (h.Kind != PeerBroker && h.Kind != PeerClient)) {
				t.Fatalf("RecvHello returned an invalid hello %+v", h)
			}
		})
	})
}

// readPiped writes raw into one end of a pipe, closes it, and hands a
// connection on the other end, drawing from a private pool, to read;
// afterwards that pool's Gets and Puts must balance.
func readPiped(t *testing.T, raw []byte, read func(c *Conn)) {
	t.Helper()
	a, b := net.Pipe()
	pool := NewBufPool()
	c := NewConn(b)
	c.SetBufferPool(pool)
	written := make(chan struct{})
	go func() {
		defer close(written)
		_, _ = a.Write(raw)
		_ = a.Close()
	}()
	read(c)
	_ = c.Close()
	<-written
	if st := pool.Stats(); st.Gets != st.Puts {
		t.Fatalf("pool books do not balance: %d Gets vs %d Puts", st.Gets, st.Puts)
	}
}
