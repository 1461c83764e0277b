package client

import "github.com/greenps/greenps/internal/message"

// Unadvertise withdraws an advertisement.
func (c *Client) Unadvertise(advID string) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindUnadvertisement, UnadvID: advID})
}
