package broker

import (
	"testing"
	"time"

	"github.com/greenps/greenps/internal/message"
)

// NumSubscriptions returns the routing-table size.
func (c *Core) NumSubscriptions() int { return c.engine.Len() }

// Info returns the broker's BIA contribution.
func (c *Core) Info() message.BrokerInfo { return c.info() }

// SetHandshakeTimeout sets the hello deadline to d until the test ends.
func SetHandshakeTimeout(tb testing.TB, d time.Duration) {
	old := handshakeTimeout
	handshakeTimeout = d
	tb.Cleanup(func() { handshakeTimeout = old })
}
