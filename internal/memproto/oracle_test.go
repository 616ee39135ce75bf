package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// ReadValuesAppend is the string-based retrieval reader the client used
// before ReadValue/ReadValues replaced it (readLine → strings.Fields →
// strconv, six allocations per hit). It is kept, unchanged, as the
// oracle FuzzReadValuesEquivalence compares the byte-wise reader with.
func ReadValuesAppend(br *bufio.Reader, dst []Value) ([]Value, error) {
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, err
		}
		if line == ReplyEnd {
			return dst, nil
		}
		if se := errorReply(line); se != nil {
			return nil, se
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || len(fields) > 5 || fields[0] != "VALUE" {
			return nil, fmt.Errorf("%w: unexpected retrieval line %q", ErrProtocol, line)
		}
		flags, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%w: bad flags in %q", ErrProtocol, line)
		}
		size, err := strconv.ParseInt(fields[3], 10, 64)
		if err != nil || size < 0 || size > MaxValueLen {
			return nil, fmt.Errorf("%w: bad size in %q", ErrProtocol, line)
		}
		value := Value{Key: fields[1], Flags: uint32(flags)}
		if len(fields) == 5 {
			cas, err := strconv.ParseUint(fields[4], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad cas in %q", ErrProtocol, line)
			}
			value.CAS, value.HasCAS = cas, true
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, fmt.Errorf("%w: short value body: %v", ErrProtocol, err)
		}
		if err := expectCRLF(br); err != nil {
			return nil, err
		}
		value.Data = data
		dst = append(dst, value)
	}
}

// errClass reduces a reader error to what callers branch on: the
// client retries transport errors, reuses the connection after a
// *ServerError and reports ErrProtocol as is.
func errClass(err error) string {
	var se *ServerError
	switch {
	case err == nil:
		return "ok"
	case err == io.EOF:
		return "eof"
	case errors.As(err, &se):
		return "server:" + se.Kind + ":" + se.Message
	case errors.Is(err, ErrProtocol):
		return "protocol"
	default:
		return "other:" + err.Error()
	}
}

// readVia runs one reader over in and reports the values, the error
// class and how many bytes of in it consumed.
func readVia(read func(*bufio.Reader, []Value) ([]Value, error), in []byte) ([]Value, string, int) {
	src := bytes.NewReader(in)
	br := bufio.NewReaderSize(src, WireBufSize)
	values, err := read(br, nil)
	return values, errClass(err), len(in) - src.Len() - br.Buffered()
}

// FuzzReadValuesEquivalence is the differential check on the byte-wise
// reply reader: on any input it must produce the values, the error
// class and the stream position of the string-based reader it replaced.
//
// One difference is deliberate and excluded. strings.Fields also splits
// on the non-ASCII Unicode spaces (U+0085, U+00A0, U+2000…), which
// ValidKey allows inside a key, so the old reader failed a legal key
// such as "a\u00a0b" with a protocol error; the new one splits on the
// ASCII separators only, as the server's Parser does
// (TestReadValueNonASCIISpaceKey).
func FuzzReadValuesEquivalence(f *testing.F) {
	seeds := []string{
		"END\r\n",
		"VALUE k 0 5\r\nhello\r\nEND\r\n",
		"VALUE k 7 0\r\n\r\nEND\r\n",
		"VALUE a 0 1 42\r\nx\r\nVALUE b 1 2\r\nyz\r\nEND\r\n",
		"VALUE k 4294967295 3 18446744073709551615\r\nabc\r\nEND\r\n",
		"VALUE k 4294967296 3\r\nabc\r\nEND\r\n",
		"VALUE k 0 3 18446744073709551616\r\nabc\r\nEND\r\n",
		" \tVALUE  k\t0 +1\r\nx\nEND\n",
		"SERVER_ERROR digest snapshot failed\r\nEND\r\n",
		"CLIENT_ERROR bad command line format\r\n",
		"ERROR\r\n",
		"VALUE k 0 10\r\nshort\r\nEND\r\n",
		"VALUE k 0 5\r\nhel",
		"VALUE k 0 5\r\nhelloEND\r\n",
		"VALUE k 0 99999999999999999999\r\n",
		"VALUE k 0 -3\r\nEND\r\n",
		"VALUE k 0 -0\r\n\r\nEND\r\n",
		"VALUE k\r\nEND\r\n",
		"VALUE k 0 1 2 3\r\nx\r\nEND\r\n",
		"VALUE k 0 3\r\nEND\r\nEND\r\n",
		"value k 0 1\r\nx\r\nEND\r\n",
		"END",
		" END\r\n",
		"\r\n",
		"VALUE k 0 1\r\r\r\nx\r\nEND\r\n",
		"VALUE " + strings.Repeat("k", maxLineLen) + " 0 1\r\nx\r\nEND\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if bytes.ContainsFunc(in, func(r rune) bool { return r >= 0x80 && unicode.IsSpace(r) }) {
			t.Skip("non-ASCII space: the deliberate difference")
		}
		want, wantClass, wantUsed := readVia(ReadValuesAppend, in)
		got, gotClass, gotUsed := readVia(ReadValues, in)
		if gotClass != wantClass {
			t.Fatalf("error class %q, oracle %q", gotClass, wantClass)
		}
		if gotUsed != wantUsed {
			t.Fatalf("consumed %d bytes, oracle %d", gotUsed, wantUsed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("values differ:\n%+v\noracle:\n%+v", got, want)
		}

		// The unkeyed single-value form is the same reader minus Key,
		// with or without a lent buffer. A lent buffer changes where a
		// body lands, never what is read: one too small comes back
		// untouched, one large enough holds the body.
		const fill = 0xa5
		for _, lend := range []struct {
			name string
			buf  func(size int) []byte
		}{
			{"nil", func(int) []byte { return nil }},
			{"cap 0", func(int) []byte { return []byte{} }},
			{"cap 1", func(int) []byte { return []byte{fill} }},
			{"cap = body", func(size int) []byte { return bytes.Repeat([]byte{fill}, size) }},
			{"cap 64 KiB", func(int) []byte { return bytes.Repeat([]byte{fill}, 64<<10) }},
		} {
			br := bufio.NewReaderSize(bytes.NewReader(in), WireBufSize)
			for i := 0; ; i++ {
				size := 0
				if i < len(want) {
					size = len(want[i].Data)
				}
				lent := lend.buf(size)
				v := Value{Data: lent}
				ok, err := ReadValue(br, &v)
				if err != nil || !ok {
					if errClass(err) != wantClass {
						t.Fatalf("ReadValue (lent %s) error class %q, oracle %q", lend.name, errClass(err), wantClass)
					}
					break
				}
				if i >= len(want) {
					continue
				}
				v.Key = want[i].Key
				if !reflect.DeepEqual(v, want[i]) {
					t.Fatalf("ReadValue (lent %s) %d = %+v, oracle %+v", lend.name, i, v, want[i])
				}
				switch {
				case cap(lent) < size && !bytes.Equal(lent, bytes.Repeat([]byte{fill}, len(lent))):
					t.Fatalf("ReadValue (lent %s) %d wrote into a buffer too small for its %d-byte body", lend.name, i, size)
				case lent != nil && cap(lent) >= size && size > 0 && &v.Data[0] != &lent[0]:
					t.Fatalf("ReadValue (lent %s) %d allocated a %d-byte body the lent buffer holds", lend.name, i, size)
				}
			}
		}
	})
}

// A key may contain a non-ASCII Unicode space (ValidKey accepts every
// byte above ' ' but DEL); the reply reader must hand its value back.
func TestReadValueNonASCIISpaceKey(t *testing.T) {
	const key = "a\u00a0b"
	if !ValidKey(key) {
		t.Fatalf("ValidKey(%q) = false", key)
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := WriteValue(bw, Value{Key: key, Data: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := WriteEnd(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadValues(bufio.NewReader(&buf), nil)
	if err != nil || len(got) != 1 || got[0].Key != key || string(got[0].Data) != "x" {
		t.Fatalf("ReadValues = %+v, %v", got, err)
	}
}
