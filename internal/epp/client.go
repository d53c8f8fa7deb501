package epp

import (
	"fmt"
	"net"
	"sync"
	"time"
)

// Client is a synchronous EPP client for one registrar accreditation. It is
// safe for concurrent use; commands are serialised over the single
// connection, as real EPP sessions are.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	fr   *frameReader
}

// Dial connects to an EPP server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("epp: dial %s: %w", addr, err)
	}
	return NewClientConn(conn), nil
}

// NewClientConn wraps an established connection (a TCP socket, or one end of
// a net.Pipe served by Server.ServeConn for the in-process transport).
func NewClientConn(conn net.Conn) *Client {
	// The frame reader's bufio layer is deliberately not pool-released on
	// Close: Close may race an in-flight roundTrip (that is how a blocked
	// command is interrupted), so the buffer's lifetime is left to the GC.
	return &Client{conn: conn, fr: newFrameReader(conn)}
}

// Close terminates the connection without a logout exchange.
func (c *Client) Close() error { return c.conn.Close() }

// roundTrip sends req and reads the response. Protocol failures (2xxx codes)
// are returned as *ResultError; transport failures as wrapped I/O errors.
func (c *Client) roundTrip(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := WriteFrame(c.conn, req); err != nil {
		return nil, err
	}
	var resp Response
	if err := c.fr.read(&resp); err != nil {
		return nil, err
	}
	if err := resp.Err(); err != nil {
		return &resp, err
	}
	return &resp, nil
}

// Login authenticates the session for the accreditation.
func (c *Client) Login(registrarID int, token string) error {
	_, err := c.roundTrip(&Request{Cmd: CmdLogin, Registrar: registrarID, Token: token})
	return err
}

// Check reports whether name is available for creation.
func (c *Client) Check(name string) (bool, error) {
	resp, err := c.roundTrip(&Request{Cmd: CmdCheck, Name: name})
	if err != nil {
		return false, err
	}
	if resp.Available == nil {
		return false, fmt.Errorf("epp: check %q: response missing availability", name)
	}
	return *resp.Available, nil
}

// Create attempts to register name for years. On contention the registry is
// strictly first come, first served: the losing create returns a
// CodeObjectExists ResultError.
func (c *Client) Create(name string, years int) (*DomainInfo, error) {
	resp, err := c.roundTrip(&Request{Cmd: CmdCreate, Name: name, Years: years})
	if err != nil {
		return nil, err
	}
	return resp.Domain, nil
}

// Renew extends the registration of name by years.
func (c *Client) Renew(name string, years int) error {
	_, err := c.roundTrip(&Request{Cmd: CmdRenew, Name: name, Years: years})
	return err
}

// Update records a registrar update on name (bumping its last-updated
// timestamp).
func (c *Client) Update(name string) error {
	_, err := c.roundTrip(&Request{Cmd: CmdUpdate, Name: name})
	return err
}

// Delete sends the registration into the redemption period.
func (c *Client) Delete(name string) error {
	_, err := c.roundTrip(&Request{Cmd: CmdDelete, Name: name})
	return err
}

// Transfer requests a sponsorship change to this session's accreditation,
// presenting the authorisation code obtained from the current sponsor.
func (c *Client) Transfer(name, authInfo string) error {
	_, err := c.roundTrip(&Request{Cmd: CmdTransfer, Name: name, AuthInfo: authInfo})
	return err
}
