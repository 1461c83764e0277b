package broker

import "github.com/greenps/greenps/internal/message"

// NumSubscriptions returns the routing-table size.
func (c *Core) NumSubscriptions() int { return c.engine.Len() }

// Info returns the broker's BIA contribution.
func (c *Core) Info() message.BrokerInfo { return c.info() }
