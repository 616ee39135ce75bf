package cacheclient

import (
	"bufio"
	"strconv"

	"proteus/internal/memproto"
)

// CASValue is a value with its check-and-set token.
type CASValue struct {
	Value []byte
	CAS   uint64
}

// Gets fetches a key with its CAS token (memcached "gets").
func (c *Client) Gets(key string) (CASValue, bool, error) {
	v, ok, err := c.get(memproto.CmdGets, key, nil)
	return CASValue{Value: v.Data, CAS: v.CAS}, ok, err
}

// CASStatus is the outcome of a CompareAndSwap.
type CASStatus int

const (
	// CASStored means the swap succeeded.
	CASStored CASStatus = iota + 1
	// CASExists means the value changed since Gets.
	CASExists
	// CASNotFound means the key vanished.
	CASNotFound
)

// CompareAndSwap stores value only if the server-side token still
// matches (memcached "cas").
func (c *Client) CompareAndSwap(key string, value []byte, exptime int64, cas uint64) (CASStatus, error) {
	req := &memproto.Request{
		Command: memproto.CmdCas, Keys: []string{key},
		Exptime: exptime, Data: value, CAS: cas,
	}
	status := CASNotFound
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		switch reply {
		case memproto.ReplyStored:
			status = CASStored
		case memproto.ReplyExists:
			status = CASExists
		}
		return nil
	})
	return status, err
}

// Increment adds delta to a numeric value, returning the new value;
// found is false when the key is absent.
func (c *Client) Increment(key string, delta uint64) (value uint64, found bool, err error) {
	return c.arith(memproto.CmdIncr, key, delta)
}

// Decrement subtracts delta (clamped at zero).
func (c *Client) Decrement(key string, delta uint64) (value uint64, found bool, err error) {
	return c.arith(memproto.CmdDecr, key, delta)
}

func (c *Client) arith(cmd memproto.Command, key string, delta uint64) (uint64, bool, error) {
	req := &memproto.Request{Command: cmd, Keys: []string{key}, Delta: delta}
	var (
		value uint64
		found bool
	)
	err := c.roundTrip(req, func(br *bufio.Reader) error {
		reply, err := memproto.ReadReply(br)
		if err != nil {
			return err
		}
		if reply == memproto.ReplyNotFound {
			return nil
		}
		n, err := strconv.ParseUint(reply, 10, 64)
		if err != nil {
			return err
		}
		value, found = n, true
		return nil
	})
	return value, found, err
}

// Append concatenates data after an existing value, reporting whether
// the key was resident.
func (c *Client) Append(key string, data []byte) (bool, error) {
	return c.storedReply(&memproto.Request{Command: memproto.CmdAppend, Keys: []string{key}, Data: data})
}

// Prepend concatenates data before an existing value.
func (c *Client) Prepend(key string, data []byte) (bool, error) {
	return c.storedReply(&memproto.Request{Command: memproto.CmdPrepend, Keys: []string{key}, Data: data})
}
