package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestValidKey(t *testing.T) {
	cases := []struct {
		key  string
		want bool
	}{
		{"page:Main_Page", true},
		{"a", true},
		{strings.Repeat("k", MaxKeyLen), true},
		{strings.Repeat("k", MaxKeyLen+1), false},
		{"", false},
		{"has space", false},
		{"has\ttab", false},
		{"has\nnewline", false},
		{"del\x7f", false},
		{"ctrl\x01", false},
	}
	for _, c := range cases {
		if got := ValidKey(c.key); got != c.want {
			t.Errorf("ValidKey(%q) = %v, want %v", c.key, got, c.want)
		}
	}
}

func TestParseGet(t *testing.T) {
	req, err := ReadRequest(reader("get foo\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdGet || req.Key() != "foo" {
		t.Fatalf("req = %+v", req)
	}
	req, err = ReadRequest(reader("gets a b c\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdGets || len(req.Keys) != 3 || req.Keys[2] != "c" {
		t.Fatalf("req = %+v", req)
	}
}

func TestParseSet(t *testing.T) {
	req, err := ReadRequest(reader("set foo 7 300 5\r\nhello\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if req.Command != CmdSet || req.Key() != "foo" || req.Flags != 7 ||
		req.Exptime != 300 || string(req.Data) != "hello" || req.NoReply {
		t.Fatalf("req = %+v", req)
	}
	req, err = ReadRequest(reader("set foo 0 0 3 noreply\r\nabc\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !req.NoReply {
		t.Fatal("noreply not parsed")
	}
}

func TestParseBinaryValueWithCRLFInside(t *testing.T) {
	payload := "ab\r\ncd"
	req, err := ReadRequest(reader("set k 0 0 6\r\n" + payload + "\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Data) != payload {
		t.Fatalf("data = %q, want %q", req.Data, payload)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"bogus foo\r\n",
		"get\r\n",
		"get bad key with space extra\x01\r\n",
		"set foo 0 0\r\n",
		"set foo x 0 5\r\nhello\r\n",
		"set foo 0 0 -1\r\n",
		"set foo 0 0 5\r\nhi\r\n", // short body
		"set foo 0 0 2\r\nhiX",    // missing CRLF
		"delete\r\n",
		"touch foo\r\n",
		"touch foo abc\r\n",
	}
	for _, in := range cases {
		if _, err := ReadRequest(reader(in)); err == nil {
			t.Errorf("ReadRequest(%q): want error", in)
		}
	}
}

func TestParseCleanEOF(t *testing.T) {
	if _, err := ReadRequest(reader("")); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestOversizedValueRejected(t *testing.T) {
	_, err := ReadRequest(reader("set k 0 0 999999999\r\n"))
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestSimpleCommands(t *testing.T) {
	for in, want := range map[string]Command{
		"stats\r\n":      CmdStats,
		"flush_all\r\n":  CmdFlushAll,
		"version\r\n":    CmdVersion,
		"quit\r\n":       CmdQuit,
		"delete k\r\n":   CmdDelete,
		"touch k 30\r\n": CmdTouch,
	} {
		req, err := ReadRequest(reader(in))
		if err != nil {
			t.Errorf("ReadRequest(%q): %v", in, err)
			continue
		}
		if req.Command != want {
			t.Errorf("ReadRequest(%q) = %v, want %v", in, req.Command, want)
		}
	}
}

// Round trip: client encoding must parse back identically.
func TestRequestRoundTrip(t *testing.T) {
	reqs := []*Request{
		{Command: CmdGet, Keys: []string{"alpha"}},
		{Command: CmdGets, Keys: []string{"a", "b", "c"}},
		{Command: CmdSet, Keys: []string{"k"}, Flags: 42, Exptime: 60, Data: []byte("payload")},
		{Command: CmdAdd, Keys: []string{"k"}, Data: []byte{}},
		{Command: CmdReplace, Keys: []string{"k"}, Data: []byte("x"), NoReply: true},
		{Command: CmdDelete, Keys: []string{"gone"}},
		{Command: CmdTouch, Keys: []string{"k"}, Exptime: 99},
		{Command: CmdStats},
		{Command: CmdFlushAll},
		{Command: CmdVersion},
		{Command: CmdQuit},
	}
	for _, want := range reqs {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := want.WriteTo(bw); err != nil {
			t.Fatalf("WriteTo(%v): %v", want.Command, err)
		}
		bw.Flush()
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("ReadRequest(%v encoding %q): %v", want.Command, buf.String(), err)
		}
		if got.Command != want.Command || got.Key() != want.Key() ||
			got.Flags != want.Flags || got.Exptime != want.Exptime ||
			!bytes.Equal(got.Data, want.Data) || got.NoReply != want.NoReply {
			t.Fatalf("round trip %v: got %+v want %+v", want.Command, got, want)
		}
	}
}

// Property: any byte payload survives a set round trip.
func TestQuickSetDataRoundTrip(t *testing.T) {
	prop := func(data []byte) bool {
		if len(data) > MaxValueLen {
			data = data[:MaxValueLen]
		}
		req := &Request{Command: CmdSet, Keys: []string{"k"}, Data: data}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := req.WriteTo(bw); err != nil {
			return false
		}
		bw.Flush()
		got, err := ReadRequest(bufio.NewReader(&buf))
		return err == nil && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestValuesRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	want := []Value{
		{Key: "a", Flags: 1, Data: []byte("one")},
		{Key: "b", Flags: 0, Data: []byte{}},
		{Key: "c", Flags: 7, Data: []byte("bin\r\ndata")},
	}
	for _, v := range want {
		if err := WriteValue(bw, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteEnd(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadValues(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key || got[i].Flags != want[i].Flags || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("value %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestReadValuesEmpty(t *testing.T) {
	got, err := ReadValues(reader("END\r\n"), nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v; want empty, nil", got, err)
	}
}

func TestReadReplyAndErrors(t *testing.T) {
	if r, err := ReadReply(reader("STORED\r\n")); err != nil || r != ReplyStored {
		t.Fatalf("got %q, %v", r, err)
	}
	_, err := ReadReply(reader("SERVER_ERROR out of memory\r\n"))
	var se *ServerError
	if !errors.As(err, &se) || se.Kind != "SERVER_ERROR" || se.Message != "out of memory" {
		t.Fatalf("err = %v", err)
	}
	_, err = ReadReply(reader("ERROR\r\n"))
	if !errors.As(err, &se) || se.Kind != ReplyError {
		t.Fatalf("err = %v", err)
	}
	_, err = ReadValues(reader("CLIENT_ERROR bad line\r\n"), nil)
	if !errors.As(err, &se) || se.Kind != "CLIENT_ERROR" {
		t.Fatalf("err = %v", err)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	want := map[string]string{"curr_items": "10", "get_hits": "99", "version": "proteus-1.0"}
	if err := WriteStats(bw, want); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadStats(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("stat %q = %q, want %q", k, got[k], v)
		}
	}
}

func TestCommandString(t *testing.T) {
	if CmdGet.String() != "get" || CmdFlushAll.String() != "flush_all" {
		t.Fatal("command names wrong")
	}
	if s := Command(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("unknown command string = %q", s)
	}
}
