package memproto

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property: arbitrary byte soup never panics the request parser; it
// either parses or errors.
func TestQuickReadRequestNeverPanics(t *testing.T) {
	prop := func(data []byte) bool {
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			_, err := ReadRequest(br)
			if err != nil {
				return true // io.EOF or protocol error both fine
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: arbitrary byte soup never panics the response readers.
func TestQuickResponseReadersNeverPanic(t *testing.T) {
	prop := func(data []byte) bool {
		if _, err := ReadValues(bufio.NewReader(bytes.NewReader(data)), nil); err == nil {
			// Parsed cleanly — acceptable (e.g. "END\r\n" prefix).
			_ = err
		}
		if _, err := ReadReply(bufio.NewReader(bytes.NewReader(data))); err == nil {
			_ = err
		}
		if _, err := ReadStats(bufio.NewReader(bytes.NewReader(data))); err == nil {
			_ = err
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Mutation fuzzing: take valid command streams and corrupt them; the
// parser must never panic and never mis-frame into an infinite loop.
func TestMutatedCommandStreams(t *testing.T) {
	seeds := []string{
		"get key\r\n",
		"gets a b c\r\n",
		"set k 0 60 5\r\nhello\r\n",
		"cas k 0 0 3 99\r\nabc\r\n",
		"incr n 5\r\n",
		"append k 0 0 2\r\nhi\r\n",
		"delete k noreply\r\n",
		"stats\r\n",
	}
	rng := rand.New(rand.NewSource(99))
	for _, seed := range seeds {
		for trial := 0; trial < 200; trial++ {
			data := []byte(seed)
			for m := 0; m < 1+rng.Intn(3); m++ {
				pos := rng.Intn(len(data))
				switch rng.Intn(3) {
				case 0:
					data[pos] = byte(rng.Intn(256))
				case 1:
					data = append(data[:pos], data[pos+1:]...)
				default:
					data = append(data[:pos], append([]byte{byte(rng.Intn(256))}, data[pos:]...)...)
				}
				if len(data) == 0 {
					data = []byte{'\n'}
				}
			}
			br := bufio.NewReader(bytes.NewReader(data))
			for i := 0; i < 4; i++ {
				if _, err := ReadRequest(br); err != nil {
					break
				}
			}
		}
	}
}

// Interleaved pipelined commands parse in order.
func TestPipelinedStream(t *testing.T) {
	stream := "set a 0 0 1\r\nx\r\nget a\r\nincr n 1\r\ndelete a\r\nquit\r\n"
	br := bufio.NewReader(strings.NewReader(stream))
	want := []Command{CmdSet, CmdGet, CmdIncr, CmdDelete, CmdQuit}
	for i, cmd := range want {
		req, err := ReadRequest(br)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if req.Command != cmd {
			t.Fatalf("request %d = %v, want %v", i, req.Command, cmd)
		}
	}
	if _, err := ReadRequest(br); err != io.EOF {
		t.Fatalf("trailing read err = %v, want EOF", err)
	}
}

// CAS round trip through the wire format.
func TestCasRoundTrip(t *testing.T) {
	req := &Request{Command: CmdCas, Keys: []string{"k"}, Exptime: 9, Data: []byte("zz"), CAS: 1234567}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := req.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Command != CmdCas || got.CAS != 1234567 || got.Exptime != 9 || string(got.Data) != "zz" {
		t.Fatalf("round trip = %+v", got)
	}
}

// Incr/decr round trip.
func TestArithRoundTrip(t *testing.T) {
	for _, cmd := range []Command{CmdIncr, CmdDecr} {
		req := &Request{Command: cmd, Keys: []string{"n"}, Delta: 77}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := req.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		got, err := ReadRequest(bufio.NewReader(&buf))
		if err != nil {
			t.Fatal(err)
		}
		if got.Command != cmd || got.Delta != 77 {
			t.Fatalf("round trip = %+v", got)
		}
	}
}

// Values with CAS tokens survive the response round trip.
func TestValuesWithCASRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	want := []Value{
		{Key: "a", Data: []byte("1"), CAS: 42, HasCAS: true},
		{Key: "b", Data: []byte("2")},
	}
	for _, v := range want {
		if err := WriteValue(bw, v); err != nil {
			t.Fatal(err)
		}
	}
	WriteEnd(bw)
	bw.Flush()
	got, err := ReadValues(bufio.NewReader(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got[0].HasCAS || got[0].CAS != 42 || got[1].HasCAS {
		t.Fatalf("got %+v", got)
	}
}
