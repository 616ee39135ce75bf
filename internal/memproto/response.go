package memproto

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Server-side response writers.
//
// The hot-path writers (WriteValue, WriteNumber, WriteReply, WriteEnd)
// are allocation-free: numbers are formatted with strconv.AppendUint
// into stack arrays and lines are emitted as a sequence of WriteString
// and Write calls so a GET hit costs zero heap allocations end to end.

// maxDecimalLen is the longest decimal rendering the writers emit
// (math.MinInt64 with its sign).
const maxDecimalLen = 20

// writeUint appends n in decimal without allocating. The digits are
// appended into the writer's own buffer (AvailableBuffer); a stack
// array would escape through the Write call and defeat the zero-alloc
// contract.
//
//lint:hotpath decimal encode on every response
func writeUint(bw *bufio.Writer, n uint64) {
	if bw.Available() < maxDecimalLen {
		// Make room; a short early flush is harmless and its error is
		// sticky — the Write below reports it.
		_ = bw.Flush()
	}
	//lint:allow hotalloc AppendUint writes into the writer's spare capacity (AvailableBuffer); allocation-free once the buffer is sized
	bw.Write(strconv.AppendUint(bw.AvailableBuffer(), n, 10))
}

// writeInt appends n in decimal without allocating.
func writeInt(bw *bufio.Writer, n int64) {
	if bw.Available() < maxDecimalLen {
		_ = bw.Flush() // as in writeUint: sticky error, reported below
	}
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), n, 10))
}

// WriteValue emits one VALUE block of a retrieval response. When
// v.HasCAS is set the CAS token is appended ("gets" responses).
//
//lint:hotpath VALUE block on every hit
func WriteValue(bw *bufio.Writer, v Value) error {
	bw.WriteString("VALUE ")
	bw.WriteString(v.Key)
	bw.WriteByte(' ')
	writeUint(bw, uint64(v.Flags))
	bw.WriteByte(' ')
	writeUint(bw, uint64(len(v.Data)))
	if v.HasCAS {
		bw.WriteByte(' ')
		writeUint(bw, v.CAS)
	}
	bw.WriteString("\r\n")
	bw.Write(v.Data)
	_, err := bw.WriteString("\r\n")
	return err
}

// WriteNumber emits an incr/decr result line.
func WriteNumber(bw *bufio.Writer, n uint64) error {
	writeUint(bw, n)
	_, err := bw.WriteString("\r\n")
	return err
}

// WriteEnd terminates a retrieval or stats response.
//
//lint:hotpath terminator on every retrieval response
func WriteEnd(bw *bufio.Writer) error {
	_, err := bw.WriteString(ReplyEnd + "\r\n")
	return err
}

// WriteReply emits a single reply line such as STORED or NOT_FOUND.
func WriteReply(bw *bufio.Writer, reply string) error {
	if _, err := bw.WriteString(reply); err != nil {
		return err
	}
	_, err := bw.WriteString("\r\n")
	return err
}

// WriteStats emits STAT lines (sorted for determinism) followed by END.
func WriteStats(bw *bufio.Writer, stats map[string]string) error {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		bw.WriteString("STAT ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(stats[name])
		if _, err := bw.WriteString("\r\n"); err != nil {
			return err
		}
	}
	return WriteEnd(bw)
}

// WriteClientError emits a CLIENT_ERROR line (bad request syntax).
func WriteClientError(bw *bufio.Writer, msg string) error {
	bw.WriteString("CLIENT_ERROR ")
	bw.WriteString(msg)
	_, err := bw.WriteString("\r\n")
	return err
}

// WriteServerError emits a SERVER_ERROR line (server-side failure).
func WriteServerError(bw *bufio.Writer, msg string) error {
	bw.WriteString("SERVER_ERROR ")
	bw.WriteString(msg)
	_, err := bw.WriteString("\r\n")
	return err
}

// Client-side response readers.

// ServerError is a SERVER_ERROR or CLIENT_ERROR reply surfaced as a Go
// error by the client readers.
type ServerError struct {
	Kind    string // "SERVER_ERROR", "CLIENT_ERROR" or "ERROR"
	Message string
}

func (e *ServerError) Error() string {
	if e.Message == "" {
		return "memproto: " + e.Kind
	}
	return "memproto: " + e.Kind + ": " + e.Message
}

// errorReply converts an error reply line to a *ServerError, or nil if
// the line is not an error reply.
func errorReply(line string) *ServerError {
	switch {
	case line == ReplyError:
		return &ServerError{Kind: ReplyError}
	case strings.HasPrefix(line, "CLIENT_ERROR"):
		return &ServerError{Kind: "CLIENT_ERROR", Message: strings.TrimSpace(strings.TrimPrefix(line, "CLIENT_ERROR"))}
	case strings.HasPrefix(line, "SERVER_ERROR"):
		return &ServerError{Kind: "SERVER_ERROR", Message: strings.TrimSpace(strings.TrimPrefix(line, "SERVER_ERROR"))}
	}
	return nil
}

// ReadValue reads the next element of a retrieval response: a VALUE
// block, stored into v (true), or the END terminator (false). It works
// on the bytes of the reader's buffer — the Parser's line reader, field
// splitter and overflow-exact numeric parsers — so the only allocation
// is v.Data, which the caller may keep. A caller that sets v.Data lends
// its capacity: a body that fits is read into it, and one that does not
// gets a fresh slice, leaving the lent bytes untouched. v.Key is left
// empty: a single-key caller knows which key it asked for; ReadValues
// fills it.
//
//lint:hotpath reply read on every client GET
func ReadValue(br *bufio.Reader, v *Value) (bool, error) {
	return readValue(br, v, false)
}

// ReadValues consumes a retrieval response — zero or more VALUE blocks
// terminated by END — appending to dst, so pipelined clients can reuse
// one scratch slice across batches. Each Key and Data is a fresh
// allocation the caller may keep.
func ReadValues(br *bufio.Reader, dst []Value) ([]Value, error) {
	for {
		var v Value
		ok, err := readValue(br, &v, true)
		if err != nil {
			return nil, err
		}
		if !ok {
			return dst, nil
		}
		dst = append(dst, v)
	}
}

//lint:hotpath reply read on every client GET
func readValue(br *bufio.Reader, v *Value, keyed bool) (bool, error) {
	line, err := readLineSlice(br)
	if err != nil {
		return false, err
	}
	if string(line) == ReplyEnd {
		return false, nil
	}
	// VALUE <key> <flags> <bytes> [<cas>]
	var table [5][]byte
	fields := splitFields(line, table[:0])
	if len(fields) < 4 || len(fields) > 5 || string(fields[0]) != "VALUE" {
		//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
		if se := errorReply(string(line)); se != nil {
			return false, se
		}
		//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
		return false, fmt.Errorf("%w: unexpected retrieval line %q", ErrProtocol, line)
	}
	flags, ok := parseUintBytes(fields[2], 32)
	if !ok {
		//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
		return false, fmt.Errorf("%w: bad flags in %q", ErrProtocol, line)
	}
	size, ok := parseIntBytes(fields[3])
	if !ok || size < 0 || size > MaxValueLen {
		//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
		return false, fmt.Errorf("%w: bad size in %q", ErrProtocol, line)
	}
	lent := v.Data[:0]
	*v = Value{Flags: uint32(flags)}
	if len(fields) == 5 {
		cas, ok := parseUintBytes(fields[4], 64)
		if !ok {
			//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
			return false, fmt.Errorf("%w: bad cas in %q", ErrProtocol, line)
		}
		v.CAS, v.HasCAS = cas, true
	}
	if keyed {
		// Before the body read, which may refill the buffer line aliases.
		//lint:allow hotalloc multi-key callers index the reply by key and keep it
		v.Key = string(fields[1])
	}
	if lent != nil && int64(cap(lent)) >= size {
		v.Data = lent[:size]
	} else {
		//lint:allow hotalloc the body is allocated only when no lent buffer fits it; the caller keeps it
		v.Data = make([]byte, size)
	}
	// io.ReadFull copies what the buffer already holds and, for a body
	// larger than the buffer, reads the excess straight into v.Data.
	if _, err := io.ReadFull(br, v.Data); err != nil {
		//lint:allow hotalloc error replies and malformed lines allocate their message; a hit never takes this path
		return false, fmt.Errorf("%w: short value body: %v", ErrProtocol, err)
	}
	//lint:allow hotalloc a missing body terminator allocates its error; a hit never takes this path
	if err := expectCRLF(br); err != nil {
		return false, err
	}
	return true, nil
}

// ReadReply consumes one reply line (STORED, DELETED, ...), converting
// error replies into *ServerError.
func ReadReply(br *bufio.Reader) (string, error) {
	line, err := readLine(br)
	if err != nil {
		return "", err
	}
	if se := errorReply(line); se != nil {
		return "", se
	}
	return line, nil
}

// ReadStats consumes a stats response into a map.
func ReadStats(br *bufio.Reader) (map[string]string, error) {
	stats := make(map[string]string)
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if line == ReplyEnd {
			return stats, nil
		}
		if se := errorReply(line); se != nil {
			return nil, se
		}
		fields := strings.SplitN(line, " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" {
			return nil, fmt.Errorf("%w: unexpected stats line %q", ErrProtocol, line)
		}
		stats[fields[1]] = fields[2]
	}
}
