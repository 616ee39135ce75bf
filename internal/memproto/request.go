package memproto

import (
	"bufio"
	"fmt"
	"io"
)

// Request is one parsed client command.
type Request struct {
	Command Command
	Keys    []string // get/gets key list; single-key commands use Keys[0]
	Flags   uint32   // storage commands
	Exptime int64    // seconds, memcached semantics (0 = never)
	Data    []byte   // storage payload
	CAS     uint64   // cas command token
	Delta   uint64   // incr/decr amount
	NoReply bool
}

// Key returns the first key, or "" for keyless commands.
func (r *Request) Key() string {
	if len(r.Keys) == 0 {
		return ""
	}
	return r.Keys[0]
}

// Parser reads requests from one connection, reusing per-connection
// scratch (the line buffer, the field table, the Request struct and its
// Keys backing array) so steady-state parsing allocates only what the
// caller may retain: the key strings and, for storage commands, the
// freshly allocated Data payload. cacheserver keeps one Parser per
// connection (pooled across connections via sync.Pool).
type Parser struct {
	br     *bufio.Reader
	req    Request
	keys   []string // reused backing array for req.Keys
	fields [][]byte // reused field table, aliasing the reader's buffer
}

// NewParser builds a Parser reading from br. The bufio.Reader's buffer
// must be at least maxLineLen bytes (cacheserver sizes it WireBufSize)
// so a maximal command line fits without copying.
func NewParser(br *bufio.Reader) *Parser { return &Parser{br: br} }

// Reset rebinds the parser to a new stream, keeping its scratch.
func (p *Parser) Reset(br *bufio.Reader) { p.br = br }

// ReadRequest parses one command from the stream. io.EOF is returned
// unwrapped when the connection closes cleanly between commands. The
// returned Request is freshly allocated and owned by the caller; hot
// server loops use Parser.Next instead to avoid the per-request
// allocations.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	p := &Parser{br: br}
	return p.Next()
}

// Next parses one command. The returned Request points into the
// parser's scratch: it, and its Keys slice, are valid only until the
// following Next call. Data (storage payloads) and the key strings are
// freshly allocated and may be retained.
//
//lint:hotpath per-request parse loop
func (p *Parser) Next() (*Request, error) {
	line, err := readLineSlice(p.br)
	if err != nil {
		return nil, err
	}
	fields := splitFields(line, p.fields[:0])
	p.fields = fields
	if len(fields) == 0 {
		//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
		return nil, fmt.Errorf("%w: empty command line", ErrProtocol)
	}
	p.req = Request{}
	switch string(fields[0]) {
	case "get", "gets":
		return p.parseGet(fields)
	case "set", "add", "replace", "cas", "append", "prepend":
		//lint:allow hotalloc mutation commands allocate payloads and error text by design; the zero-alloc contract covers retrievals
		return p.parseStore(fields)
	case "incr", "decr":
		//lint:allow hotalloc mutation commands allocate payloads and error text by design; the zero-alloc contract covers retrievals
		return p.parseArith(fields)
	case "delete":
		//lint:allow hotalloc mutation commands allocate payloads and error text by design; the zero-alloc contract covers retrievals
		return p.parseDelete(fields)
	case "touch":
		//lint:allow hotalloc mutation commands allocate payloads and error text by design; the zero-alloc contract covers retrievals
		return p.parseTouch(fields)
	case "stats":
		p.req.Command = CmdStats
		return &p.req, nil
	case "flush_all":
		p.req.Command = CmdFlushAll
		p.req.NoReply = hasNoReply(fields[1:])
		return &p.req, nil
	case "version":
		p.req.Command = CmdVersion
		return &p.req, nil
	case "quit":
		p.req.Command = CmdQuit
		return &p.req, nil
	default:
		//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
		return nil, fmt.Errorf("%w: unknown command %q", ErrProtocol, fields[0])
	}
}

// setKeys fills req.Keys from raw key fields, reusing the backing
// array. Each key string is a fresh allocation (it may be retained as a
// map key by the store).
//
//lint:hotpath key extraction on every retrieval
func (p *Parser) setKeys(raw [][]byte) error {
	p.keys = p.keys[:0]
	for _, f := range raw {
		if !validKeyBytes(f) {
			//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
			return fmt.Errorf("%w: %q", ErrBadKey, f)
		}
		//lint:allow hotalloc key strings are fresh copies by contract (retained as map keys by the store); backing-array growth amortizes to zero
		p.keys = append(p.keys, string(f))
	}
	p.req.Keys = p.keys
	return nil
}

//lint:hotpath GET command parse
func (p *Parser) parseGet(fields [][]byte) (*Request, error) {
	cmd := CmdGet
	if len(fields[0]) == 4 { // "gets"
		cmd = CmdGets
	}
	if len(fields) < 2 {
		//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
		return nil, fmt.Errorf("%w: %s needs at least one key", ErrProtocol, fields[0])
	}
	if err := p.setKeys(fields[1:]); err != nil {
		return nil, err
	}
	p.req.Command = cmd
	return &p.req, nil
}

func (p *Parser) parseStore(fields [][]byte) (*Request, error) {
	// <cmd> <key> <flags> <exptime> <bytes> [cas] [noreply]
	var cmd Command
	switch string(fields[0]) {
	case "set":
		cmd = CmdSet
	case "add":
		cmd = CmdAdd
	case "replace":
		cmd = CmdReplace
	case "cas":
		cmd = CmdCas
	case "append":
		cmd = CmdAppend
	case "prepend":
		cmd = CmdPrepend
	}
	minFields, maxFields := 5, 6
	if cmd == CmdCas {
		minFields, maxFields = 6, 7
	}
	if len(fields) < minFields || len(fields) > maxFields {
		return nil, fmt.Errorf("%w: bad %s syntax", ErrProtocol, fields[0])
	}
	if err := p.setKeys(fields[1:2]); err != nil {
		return nil, err
	}
	flags, ok := parseUintBytes(fields[2], 32)
	if !ok {
		return nil, fmt.Errorf("%w: bad flags %q", ErrProtocol, fields[2])
	}
	exptime, ok := parseIntBytes(fields[3])
	if !ok {
		return nil, fmt.Errorf("%w: bad exptime %q", ErrProtocol, fields[3])
	}
	size, ok := parseIntBytes(fields[4])
	if !ok || size < 0 {
		return nil, fmt.Errorf("%w: bad bytes %q", ErrProtocol, fields[4])
	}
	if size > MaxValueLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	var cas uint64
	rest := fields[5:]
	if cmd == CmdCas {
		cas, ok = parseUintBytes(fields[5], 64)
		if !ok {
			return nil, fmt.Errorf("%w: bad cas token %q", ErrProtocol, fields[5])
		}
		rest = fields[6:]
	}
	noReply := hasNoReply(rest)
	data := make([]byte, size)
	if _, err := io.ReadFull(p.br, data); err != nil {
		return nil, fmt.Errorf("%w: short data block: %v", ErrProtocol, err)
	}
	if err := expectCRLF(p.br); err != nil {
		return nil, err
	}
	p.req.Command = cmd
	p.req.Flags = uint32(flags)
	p.req.Exptime = exptime
	p.req.Data = data
	p.req.CAS = cas
	p.req.NoReply = noReply
	return &p.req, nil
}

// parseArith handles incr/decr: <cmd> <key> <delta> [noreply].
func (p *Parser) parseArith(fields [][]byte) (*Request, error) {
	if len(fields) < 3 || len(fields) > 4 {
		return nil, fmt.Errorf("%w: bad %s syntax", ErrProtocol, fields[0])
	}
	cmd := CmdIncr
	if fields[0][0] == 'd' {
		cmd = CmdDecr
	}
	if err := p.setKeys(fields[1:2]); err != nil {
		return nil, err
	}
	delta, ok := parseUintBytes(fields[2], 64)
	if !ok {
		return nil, fmt.Errorf("%w: bad delta %q", ErrProtocol, fields[2])
	}
	p.req.Command = cmd
	p.req.Delta = delta
	p.req.NoReply = hasNoReply(fields[3:])
	return &p.req, nil
}

func (p *Parser) parseDelete(fields [][]byte) (*Request, error) {
	if len(fields) < 2 || len(fields) > 3 {
		return nil, fmt.Errorf("%w: bad delete syntax", ErrProtocol)
	}
	if err := p.setKeys(fields[1:2]); err != nil {
		return nil, err
	}
	p.req.Command = CmdDelete
	p.req.NoReply = hasNoReply(fields[2:])
	return &p.req, nil
}

func (p *Parser) parseTouch(fields [][]byte) (*Request, error) {
	if len(fields) < 3 || len(fields) > 4 {
		return nil, fmt.Errorf("%w: bad touch syntax", ErrProtocol)
	}
	if err := p.setKeys(fields[1:2]); err != nil {
		return nil, err
	}
	exptime, ok := parseIntBytes(fields[2])
	if !ok {
		return nil, fmt.Errorf("%w: bad exptime %q", ErrProtocol, fields[2])
	}
	p.req.Command = CmdTouch
	p.req.Exptime = exptime
	p.req.NoReply = hasNoReply(fields[3:])
	return &p.req, nil
}

func hasNoReply(rest [][]byte) bool {
	return len(rest) == 1 && string(rest[0]) == "noreply"
}

// readLineSlice reads one CRLF- (or LF-) terminated line without the
// terminator, rejecting oversized lines. The returned slice aliases the
// reader's buffer and is valid only until the next read.
//
//lint:hotpath line read on every request and every reply
func readLineSlice(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return nil, io.EOF
		}
		if err == bufio.ErrBufferFull {
			//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
			return nil, fmt.Errorf("%w: line too long", ErrProtocol)
		}
		//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if len(line) > maxLineLen {
		//lint:allow hotalloc protocol-error paths allocate their message; the steady-state loop never takes them
		return nil, fmt.Errorf("%w: line too long", ErrProtocol)
	}
	for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
		line = line[:len(line)-1]
	}
	return line, nil
}

// splitFields splits a command line into whitespace-separated fields,
// appending into dst (whose backing array is reused call to call). The
// separator set is the ASCII whitespace bytes a command line can
// contain; key validation independently rejects anything at or below
// the space byte.
//
//lint:hotpath field split on every request
func splitFields(line []byte, dst [][]byte) [][]byte {
	start := -1
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case ' ', '\t', '\v', '\f', '\r', '\n':
			if start >= 0 {
				//lint:allow hotalloc appends into a scratch slice whose backing array is reused call to call; growth amortizes to zero
				dst = append(dst, line[start:i])
				start = -1
			}
		default:
			if start < 0 {
				start = i
			}
		}
	}
	if start >= 0 {
		//lint:allow hotalloc appends into a scratch slice whose backing array is reused call to call; growth amortizes to zero
		dst = append(dst, line[start:])
	}
	return dst
}

// validKeyBytes is ValidKey for a raw field.
func validKeyBytes(key []byte) bool {
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

// parseUintBytes parses an unsigned decimal without allocating,
// rejecting values that overflow the given bit width.
func parseUintBytes(b []byte, bits int) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	max := uint64(1)<<uint(bits) - 1
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, true
}

// parseIntBytes parses a signed decimal (optional +/-) without
// allocating, rejecting int64 overflow.
func parseIntBytes(b []byte) (int64, bool) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	limit := uint64(1) << 63 // |math.MinInt64|
	if !neg {
		limit--
	}
	if len(b) == 0 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := uint64(c - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), true
	}
	return int64(n), true
}

// WriteGet encodes a retrieval command (cmd is CmdGet or CmdGets) for
// keys. Request.WriteTo uses it; the client's single-key Get calls it
// directly, because a key passed here stays on the caller's stack while
// a Request's Keys slice does not.
func WriteGet(bw *bufio.Writer, cmd Command, keys ...string) error {
	name := "get"
	if cmd == CmdGets {
		name = "gets"
	}
	bw.WriteString(name)
	for _, k := range keys {
		if !ValidKey(k) {
			return fmt.Errorf("%w: %q", ErrBadKey, k)
		}
		bw.WriteByte(' ')
		bw.WriteString(k)
	}
	_, err := bw.WriteString("\r\n")
	return err
}

// WriteTo encodes the request for the client side of the connection.
// The encoding is allocation-free so pipelined batches (MultiGet) cost
// nothing beyond the buffered bytes.
func (r *Request) WriteTo(bw *bufio.Writer) error {
	switch r.Command {
	case CmdGet, CmdGets:
		return WriteGet(bw, r.Command, r.Keys...)
	case CmdSet, CmdAdd, CmdReplace, CmdCas, CmdAppend, CmdPrepend:
		if !ValidKey(r.Key()) {
			return fmt.Errorf("%w: %q", ErrBadKey, r.Key())
		}
		if len(r.Data) > MaxValueLen {
			return fmt.Errorf("%w: %d bytes", ErrTooLarge, len(r.Data))
		}
		bw.WriteString(r.Command.String())
		bw.WriteByte(' ')
		bw.WriteString(r.Key())
		bw.WriteByte(' ')
		writeUint(bw, uint64(r.Flags))
		bw.WriteByte(' ')
		writeInt(bw, r.Exptime)
		bw.WriteByte(' ')
		writeUint(bw, uint64(len(r.Data)))
		if r.Command == CmdCas {
			bw.WriteByte(' ')
			writeUint(bw, r.CAS)
		}
		if r.NoReply {
			bw.WriteString(" noreply")
		}
		bw.WriteString("\r\n")
		bw.Write(r.Data)
		_, err := bw.WriteString("\r\n")
		return err
	case CmdIncr, CmdDecr:
		if !ValidKey(r.Key()) {
			return fmt.Errorf("%w: %q", ErrBadKey, r.Key())
		}
		bw.WriteString(r.Command.String())
		bw.WriteByte(' ')
		bw.WriteString(r.Key())
		bw.WriteByte(' ')
		writeUint(bw, r.Delta)
		if r.NoReply {
			bw.WriteString(" noreply")
		}
		_, err := bw.WriteString("\r\n")
		return err
	case CmdDelete:
		if !ValidKey(r.Key()) {
			return fmt.Errorf("%w: %q", ErrBadKey, r.Key())
		}
		bw.WriteString("delete ")
		bw.WriteString(r.Key())
		if r.NoReply {
			bw.WriteString(" noreply")
		}
		_, err := bw.WriteString("\r\n")
		return err
	case CmdTouch:
		if !ValidKey(r.Key()) {
			return fmt.Errorf("%w: %q", ErrBadKey, r.Key())
		}
		bw.WriteString("touch ")
		bw.WriteString(r.Key())
		bw.WriteByte(' ')
		writeInt(bw, r.Exptime)
		if r.NoReply {
			bw.WriteString(" noreply")
		}
		_, err := bw.WriteString("\r\n")
		return err
	case CmdStats, CmdFlushAll, CmdVersion, CmdQuit:
		bw.WriteString(r.Command.String())
		_, err := bw.WriteString("\r\n")
		return err
	default:
		return fmt.Errorf("%w: cannot encode %v", ErrProtocol, r.Command)
	}
}

// readLine is readLineSlice returning a copy. The reply readers off
// the GET path use it; Parser and ReadValue use the alias-returning
// readLineSlice.
func readLine(br *bufio.Reader) (string, error) {
	line, err := readLineSlice(br)
	if err != nil {
		return "", err
	}
	return string(line), nil
}

func expectCRLF(br *bufio.Reader) error {
	b, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("%w: missing data terminator", ErrProtocol)
	}
	if b == '\r' {
		b, err = br.ReadByte()
		if err != nil {
			return fmt.Errorf("%w: missing data terminator", ErrProtocol)
		}
	}
	if b != '\n' {
		return fmt.Errorf("%w: data block not terminated by CRLF", ErrProtocol)
	}
	return nil
}
