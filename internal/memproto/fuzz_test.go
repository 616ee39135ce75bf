package memproto

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// linesFit reports whether every LF-terminated line of a canonical
// encoding is within maxLineLen. A parsed input line of exactly
// maxLineLen bytes with a bare-LF terminator re-encodes one byte longer
// (CRLF), so the round trip only holds when the canonical form still
// fits. Value bodies containing '\n' can make this spuriously false,
// which merely skips the round trip for that input.
func linesFit(wire []byte) bool {
	for _, line := range bytes.Split(wire, []byte("\n")) {
		if len(line)+1 > maxLineLen {
			return false
		}
	}
	return true
}

// encodeRequest renders a request through WriteTo, failing the fuzz run
// if a successfully parsed request cannot be re-encoded.
func encodeRequest(t *testing.T, req *Request) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := req.WriteTo(bw); err != nil {
		t.Fatalf("WriteTo failed on parsed request %+v: %v", req, err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzParseRequest feeds arbitrary bytes to the server-side command
// parser. It must never panic; when it accepts a command, the request
// must respect the protocol limits and the encode→parse→encode cycle
// must reach a byte-identical fixpoint.
func FuzzParseRequest(f *testing.F) {
	seeds := []string{
		"get k\r\n",
		"gets alpha beta gamma\r\n",
		"set k 7 30 5\r\nhello\r\n",
		"add k 0 0 0\r\n\r\n",
		"replace k 0 0 3 noreply\r\nabc\r\n",
		"cas k 0 0 2 99\r\nhi\r\n",
		"append k 0 0 1\r\nx\r\n",
		"prepend k 0 0 1\r\ny\r\n",
		"incr counter 5\r\n",
		"decr counter 1 noreply\r\n",
		"delete k\r\n",
		"delete k noreply\r\n",
		"touch k 120\r\n",
		"stats\r\n",
		"flush_all\r\n",
		"version\r\n",
		"quit\r\n",
		// Digest maintenance goes through plain gets on reserved keys.
		"get SET_BLOOM_FILTER\r\n",
		"get BLOOM_FILTER\r\n",
		// Adversarial shapes: truncation, bad sizes, oversized fields.
		"set k 0 0 5\r\nhi\r\n",
		"set k 0 0 99999999999999999999\r\n",
		"set k 0 0 -1\r\nx\r\n",
		"get " + strings.Repeat("k", MaxKeyLen+1) + "\r\n",
		"get\r\n",
		"set k 0 0 1\r\nx",
		"incr k notanumber\r\n",
		"bogus command\r\n",
		"\r\n",
		strings.Repeat("g", maxLineLen+1) + "\r\n",
		"get k\nset k 0 0 1\nx\n",
		"get \x00key\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		req, err := ReadRequest(bufio.NewReader(bytes.NewReader(in)))
		if err != nil {
			return
		}
		for _, k := range req.Keys {
			if !ValidKey(k) {
				t.Fatalf("parser accepted invalid key %q", k)
			}
		}
		if len(req.Data) > MaxValueLen {
			t.Fatalf("parser accepted %d-byte value", len(req.Data))
		}

		// Encode→parse→encode fixpoint. Struct equality is too strict —
		// the encoder canonicalizes (e.g. drops noreply on flush_all) —
		// but a canonical encoding must survive its own round trip.
		wire := encodeRequest(t, req)
		if !linesFit(wire) {
			return
		}
		req2, err := ReadRequest(bufio.NewReader(bytes.NewReader(wire)))
		if err != nil {
			t.Fatalf("re-parse of encoded request failed: %v\nwire: %q", err, wire)
		}
		if wire2 := encodeRequest(t, req2); !bytes.Equal(wire, wire2) {
			t.Fatalf("encoding not a fixpoint:\n%q\n%q", wire, wire2)
		}
	})
}

// FuzzParseResponse feeds arbitrary bytes to the three client-side
// response readers. None may panic; parsed retrieval and stats
// responses must survive a re-encode round trip.
func FuzzParseResponse(f *testing.F) {
	seeds := []string{
		"END\r\n",
		"VALUE k 0 5\r\nhello\r\nEND\r\n",
		"VALUE k 7 0\r\n\r\nEND\r\n",
		"VALUE a 0 1 42\r\nx\r\nVALUE b 1 2\r\nyz\r\nEND\r\n",
		"STORED\r\n",
		"NOT_STORED\r\n",
		"DELETED\r\n",
		"NOT_FOUND\r\n",
		"TOUCHED\r\n",
		"OK\r\n",
		"ERROR\r\n",
		"CLIENT_ERROR bad command line format\r\n",
		"SERVER_ERROR out of memory storing object\r\n",
		"STAT pid 1234\r\nSTAT uptime 5\r\nEND\r\n",
		"STAT curr_items 0\r\nEND\r\n",
		// Adversarial shapes: truncated bodies, size lies, bad lines.
		"VALUE k 0 10\r\nshort\r\nEND\r\n",
		"VALUE k 0 99999999999999999999\r\n",
		"VALUE k 0 -3\r\nEND\r\n",
		"VALUE k\r\nEND\r\n",
		"SERVER_ERROR digest snapshot failed\r\nEND\r\n",
		"STAT onlyname\r\nEND\r\n",
		"VALUE k 0 3\r\nEND\r\nEND\r\n",
		"123\r\n",
		"\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if values, err := ReadValues(bufio.NewReader(bytes.NewReader(in)), nil); err == nil {
			for _, v := range values {
				if len(v.Data) > MaxValueLen {
					t.Fatalf("reader accepted %d-byte value", len(v.Data))
				}
			}
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			for _, v := range values {
				if err := WriteValue(bw, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := WriteEnd(bw); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if linesFit(buf.Bytes()) {
				again, err := ReadValues(bufio.NewReader(&buf), nil)
				if err != nil {
					t.Fatalf("re-parse of encoded values failed: %v", err)
				}
				if len(again) != len(values) {
					t.Fatalf("round trip changed value count: %d vs %d", len(values), len(again))
				}
				for i := range values {
					if !reflect.DeepEqual(values[i], again[i]) {
						t.Fatalf("value %d changed in round trip:\n%+v\n%+v", i, values[i], again[i])
					}
				}
			}
		}

		// readLine preserves interior carriage returns (only the trailing
		// CRLF is trimmed), so the invariant is newline-freedom only.
		if reply, err := ReadReply(bufio.NewReader(bytes.NewReader(in))); err == nil {
			if strings.Contains(reply, "\n") {
				t.Fatalf("reply line contains newline: %q", reply)
			}
		}

		if stats, err := ReadStats(bufio.NewReader(bytes.NewReader(in))); err == nil {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := WriteStats(bw, stats); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			if linesFit(buf.Bytes()) {
				again, err := ReadStats(bufio.NewReader(&buf))
				if err != nil {
					t.Fatalf("re-parse of encoded stats failed: %v", err)
				}
				if !reflect.DeepEqual(stats, again) {
					t.Fatalf("stats changed in round trip:\n%v\n%v", stats, again)
				}
			}
		}
	})
}
