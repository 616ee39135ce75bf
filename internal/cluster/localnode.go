package cluster

import (
	"fmt"
	"net"
	"sync"

	"proteus/internal/bloom"
	"proteus/internal/cache"
	"proteus/internal/cacheserver"
)

// LocalNode runs a cacheserver.Server in-process and implements Node by
// actually starting and stopping it — power cycling at laptop scale.
// PowerOff discards the store, exactly like pulling the plug on a
// memcached box.
type LocalNode struct {
	cacheCfg  cache.Config
	digest    bloom.Params
	fixedAddr string

	mu       sync.Mutex
	server   *cacheserver.Server
	ln       net.Listener
	reserved net.Listener
	addr     string
	done     chan error
}

// NewLocalNode prepares a node (not yet powered). The first PowerOn
// binds a loopback port that is then reused across power cycles so the
// address stays stable for clients.
func NewLocalNode(cacheCfg cache.Config, digest bloom.Params) *LocalNode {
	return &LocalNode{cacheCfg: cacheCfg, digest: digest}
}

// Addr returns the node's address. Before the first PowerOn it reserves
// the port eagerly so coordinators can build clients up front. The bind
// happens outside the mutex (binding under a lock stalls every other
// node operation on a slow network stack); a losing racer discards its
// reservation and adopts the winner's address.
func (n *LocalNode) Addr() string {
	n.mu.Lock()
	addr := n.addr
	n.mu.Unlock()
	if addr != "" {
		return addr
	}
	// Reserve a port without serving. The listener is HELD, not
	// released: an initially-inactive node may not power on until a
	// scale-up minutes later, and a released port can be stolen by any
	// concurrent process in the meantime (observed as bind flakes under
	// parallel package tests). The first PowerOn adopts the reservation
	// instead of re-binding.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "127.0.0.1:0"
	}
	n.mu.Lock()
	if n.addr == "" {
		n.addr = ln.Addr().String()
		n.reserved = ln
		ln = nil
	}
	addr = n.addr
	n.mu.Unlock()
	if ln != nil {
		_ = ln.Close() // losing racer discards its reservation
	}
	return addr
}

// PowerOn implements Node.
func (n *LocalNode) PowerOn() error {
	addr := n.Addr()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.server != nil {
		return nil // already on
	}
	srv, err := cacheserver.New(cacheserver.Config{Cache: n.cacheCfg, Digest: n.digest})
	if err != nil {
		return err
	}
	ln := n.reserved
	n.reserved = nil
	if ln == nil {
		//lint:allow lockorder power transitions are serialized by design; binding under n.mu is what prevents a double PowerOn from racing two servers onto one port
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("cluster: local node bind %s: %w", addr, err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	n.server, n.ln, n.done = srv, ln, done
	return nil
}

// PowerOff implements Node: the server stops and all in-memory data is
// gone.
func (n *LocalNode) PowerOff() error {
	n.mu.Lock()
	srv, done := n.server, n.done
	reserved := n.reserved
	n.server, n.ln, n.done, n.reserved = nil, nil, nil, nil
	n.mu.Unlock()
	if reserved != nil {
		_ = reserved.Close() // never powered on; release the held port
	}
	if srv == nil {
		return nil
	}
	err := srv.Close()
	<-done
	return err
}

// Running reports whether the node is powered.
func (n *LocalNode) Running() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.server != nil
}

// Server returns the live server (nil when off); used by tests to
// inspect cache contents.
func (n *LocalNode) Server() *cacheserver.Server {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.server
}

var _ Node = (*LocalNode)(nil)

// RemoteNode is a cache server managed outside this process (a real
// machine whose power is switched by ops tooling, as in the paper's
// testbed). PowerOn and PowerOff are no-ops; deployments integrate
// real actuation by wrapping this type.
type RemoteNode struct {
	addr string
}

// NewRemoteNode declares an externally managed server at addr.
func NewRemoteNode(addr string) *RemoteNode { return &RemoteNode{addr: addr} }

// Addr implements Node.
func (n *RemoteNode) Addr() string { return n.addr }

// PowerOn implements Node as a no-op.
func (n *RemoteNode) PowerOn() error { return nil }

// PowerOff implements Node as a no-op.
func (n *RemoteNode) PowerOff() error { return nil }

var _ Node = (*RemoteNode)(nil)
