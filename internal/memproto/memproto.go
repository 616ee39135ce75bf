// Package memproto implements the memcached text protocol subset that
// Proteus cache servers and clients speak: get/gets, set/add/replace,
// delete, touch, stats, flush_all, version and quit, with the standard
// STORED/NOT_STORED/DELETED/NOT_FOUND/TOUCHED/OK replies and the
// VALUE...END data format. The request and response codecs are shared
// between internal/cacheserver and internal/cacheclient so the wire
// format is defined exactly once.
//
// The paper keeps the protocol untouched and reserves two key names for
// digest maintenance: get("SET_BLOOM_FILTER") snapshots the server's
// counting Bloom filter and get("BLOOM_FILTER") retrieves the snapshot
// bytes as a normal value, so any stock memcached client can fetch a
// digest. Those keys are interpreted by internal/cacheserver, not here.
package memproto

import (
	"errors"
	"fmt"
)

// Command identifies a parsed request type.
type Command int

// Supported commands.
const (
	CmdGet Command = iota + 1
	CmdGets
	CmdSet
	CmdAdd
	CmdReplace
	CmdCas
	CmdAppend
	CmdPrepend
	CmdIncr
	CmdDecr
	CmdDelete
	CmdTouch
	CmdStats
	CmdFlushAll
	CmdVersion
	CmdQuit
)

var commandNames = map[Command]string{
	CmdGet:      "get",
	CmdGets:     "gets",
	CmdSet:      "set",
	CmdAdd:      "add",
	CmdReplace:  "replace",
	CmdCas:      "cas",
	CmdAppend:   "append",
	CmdPrepend:  "prepend",
	CmdIncr:     "incr",
	CmdDecr:     "decr",
	CmdDelete:   "delete",
	CmdTouch:    "touch",
	CmdStats:    "stats",
	CmdFlushAll: "flush_all",
	CmdVersion:  "version",
	CmdQuit:     "quit",
}

func (c Command) String() string {
	if s, ok := commandNames[c]; ok {
		return s
	}
	return fmt.Sprintf("Command(%d)", int(c))
}

// Protocol limits, matching memcached defaults.
const (
	// MaxKeyLen is the longest accepted key (memcached's 250).
	MaxKeyLen = 250
	// MaxValueLen is the largest accepted value (memcached's 1 MB
	// default; Proteus digests of the paper's recommended size fit).
	MaxValueLen = 8 << 20
	// MaxLineLen bounds a command line. Clients batching multi-key
	// gets must split key lists so each line stays within it.
	MaxLineLen = 4096
	maxLineLen = MaxLineLen
	// WireBufSize sizes every bufio.Reader and bufio.Writer on the
	// cache hop, client and server. A buffer that holds a whole
	// message costs one read or write per exchange; a smaller one costs
	// one per buffer-full, so the size is chosen by the traffic the
	// repo serves: wiki pages of 2-6 KiB and 4 KiB chunk pieces (the
	// paper's data unit) as GET replies and SET requests, which
	// bufio's 4 KiB default split in two. 16 KiB holds any of them with
	// their header and trailer; an 8-key MultiGet reply (~33 KiB) takes
	// three buffers instead of nine, and a digest body (32 KiB and up)
	// is larger than any reasonable buffer and bypasses it, bufio
	// reading and writing the excess straight from the caller's slice.
	WireBufSize = 16 << 10
)

// Errors shared by the codec.
var (
	// ErrProtocol reports a malformed command or reply line.
	ErrProtocol = errors.New("memproto: protocol error")
	// ErrTooLarge reports a value exceeding MaxValueLen.
	ErrTooLarge = errors.New("memproto: value too large")
	// ErrBadKey reports an invalid key (empty, too long, or containing
	// whitespace/control bytes).
	ErrBadKey = errors.New("memproto: invalid key")
)

// ValidKey reports whether a key is legal on the wire.
func ValidKey(key string) bool {
	if len(key) == 0 || len(key) > MaxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// Value is one VALUE block in a retrieval response. CAS is present
// only in "gets" responses (HasCAS reports it).
type Value struct {
	Key    string
	Flags  uint32
	Data   []byte
	CAS    uint64
	HasCAS bool
}

// Reply lines for storage/management commands.
const (
	ReplyStored    = "STORED"
	ReplyNotStored = "NOT_STORED"
	ReplyDeleted   = "DELETED"
	ReplyNotFound  = "NOT_FOUND"
	ReplyTouched   = "TOUCHED"
	ReplyOK        = "OK"
	ReplyEnd       = "END"
	ReplyError     = "ERROR"
	ReplyExists    = "EXISTS"
)
