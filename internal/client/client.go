// Package client implements live publish/subscribe clients for TCP
// deployments: publishers (advertise + publish with automatic sequence
// numbering) and subscribers (subscribe + delivery channel). The CROC
// coordinator is also a client of this package — it sends BIR messages and
// receives BIA messages over the same connection type.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/transport"
)

// Client is a live connection to one broker. All Send-side methods are
// safe for concurrent use; deliveries arrive on the channels returned by
// Publications and BIAs.
type Client struct {
	id   string
	conn *transport.Conn

	pubs chan *message.Publication
	bias chan *message.BIA

	wg      sync.WaitGroup
	closing chan struct{}
	once    sync.Once

	mu      sync.Mutex
	nextSeq map[string]int
	readErr error
}

// handshakeTimeout bounds Connect's TCP connect and its hello exchange.
var handshakeTimeout = 5 * time.Second

// Connect dials a broker and performs the handshake.
func Connect(id, brokerAddr string) (*Client, error) {
	if id == "" {
		return nil, fmt.Errorf("client: empty id")
	}
	conn, err := transport.Dial(brokerAddr, handshakeTimeout)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Handshake(transport.Hello{Kind: transport.PeerClient, ID: id}, false, handshakeTimeout); err != nil {
		return nil, err
	}
	c := &Client{
		id:      id,
		conn:    conn,
		pubs:    make(chan *message.Publication, 256),
		bias:    make(chan *message.BIA, 4),
		closing: make(chan struct{}),
		nextSeq: make(map[string]int),
	}
	c.wg.Add(1)
	go c.readLoop()
	return c, nil
}

// ID returns the client identifier.
func (c *Client) ID() string { return c.id }

// Publications returns the delivery channel. It is closed when the
// connection ends.
func (c *Client) Publications() <-chan *message.Publication { return c.pubs }

// BIAs returns the Broker Information Answer channel (CROC clients).
func (c *Client) BIAs() <-chan *message.BIA { return c.bias }

// Err returns the terminal read error after the channels close (nil on
// clean Close).
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.readErr
}

func (c *Client) readLoop() {
	defer c.wg.Done()
	defer close(c.pubs)
	defer close(c.bias)
	for {
		env, err := c.conn.Recv()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				select {
				case <-c.closing:
				default:
					c.mu.Lock()
					c.readErr = err
					c.mu.Unlock()
				}
			}
			return
		}
		switch env.Kind {
		case message.KindPublication:
			select {
			case c.pubs <- env.Pub:
			case <-c.closing:
				return
			}
		case message.KindBIA:
			select {
			case c.bias <- env.BIA:
			case <-c.closing:
				return
			}
		}
	}
}

// Advertise registers an advertisement owned by this client.
func (c *Client) Advertise(adv *message.Advertisement) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindAdvertisement, Adv: adv})
}

// Publish sends a publication under the given advertisement, stamping the
// per-publisher sequence number automatically.
func (c *Client) Publish(advID string, attrs map[string]message.Value) error {
	c.mu.Lock()
	seq := c.nextSeq[advID]
	c.nextSeq[advID] = seq + 1
	c.mu.Unlock()
	pub := message.NewPublication(advID, seq, attrs)
	return c.conn.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub})
}

// PublishAt sends a publication with an explicit sequence number (workload
// replay).
func (c *Client) PublishAt(pub *message.Publication) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindPublication, Pub: pub})
}

// Subscribe registers a subscription owned by this client.
func (c *Client) Subscribe(sub *message.Subscription) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindSubscription, Sub: sub})
}

// Unsubscribe withdraws a subscription.
func (c *Client) Unsubscribe(subID string) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindUnsubscription, UnsubID: subID})
}

// SendBIR floods a Broker Information Request (CROC clients).
func (c *Client) SendBIR(requestID string) error {
	return c.conn.Send(&message.Envelope{Kind: message.KindBIR, BIR: &message.BIR{RequestID: requestID}})
}

// Close terminates the connection and waits for the reader to finish.
func (c *Client) Close() error {
	var err error
	c.once.Do(func() {
		close(c.closing)
		err = c.conn.Close()
		c.wg.Wait()
	})
	return err
}
