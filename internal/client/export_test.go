package client

import (
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
)

// Unadvertise withdraws an advertisement.
func (c *Client) Unadvertise(advID string) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindUnadvertisement, UnadvID: advID})
}

// SetHandshakeTimeout sets the hello deadline to d until the test ends.
func SetHandshakeTimeout(tb testing.TB, d time.Duration) {
	old := handshakeTimeout
	handshakeTimeout = d
	tb.Cleanup(func() { handshakeTimeout = old })
}
