package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"proteus/internal/cacheserver"
	"proteus/internal/wiki"
)

// childEnv marks a re-executed test binary that runs main instead of
// the tests, so the suite drives proteus-web exactly as an operator
// starts it: flags in, HTTP out.
const childEnv = "PROTEUS_WEB_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// startCacheServers runs n in-process cache servers on loopback ports
// and returns their addresses in provisioning order.
func startCacheServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		srv, err := cacheserver.New(cacheserver.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		t.Cleanup(func() {
			_ = srv.Close()
			<-done
		})
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	return addr
}

// startWeb re-executes the test binary as proteus-web with args and
// returns its base URL once /stats answers.
func startWeb(t *testing.T, args ...string) string {
	t.Helper()
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], append([]string{"-http", addr}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-exited
	})
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		select {
		case <-exited:
			t.Fatalf("proteus-web exited early:\n%s", stderr.String())
		default:
		}
		if resp, err := http.Get(base + "/stats"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("proteus-web never answered on %s:\n%s", addr, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func do(t *testing.T, method, url string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

// TestServesEveryRoute pins proteus-web's HTTP surface against real
// cache servers: pages singly and batched, the counters, and both
// admin endpoints with their error answers.
func TestServesEveryRoute(t *testing.T) {
	const pages = 50
	corpus, err := wiki.New(pages, wiki.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	cache := startCacheServers(t, 3)
	base := startWeb(t,
		"-cache", strings.Join(cache, ","), "-corpus-pages", fmt.Sprint(pages),
		"-ttl", "1s", "-hot-replicas", "2")

	t.Run("page", func(t *testing.T) {
		key := corpus.Key(3)
		for _, want := range []string{"database", "cache"} {
			code, body, h := do(t, http.MethodGet, base+"/page/"+key)
			if code != http.StatusOK || body != string(corpus.Page(3)) {
				t.Fatalf("GET /page/%s = %d, %d bytes", key, code, len(body))
			}
			if got := h.Get("X-Proteus-Source"); got != want {
				t.Fatalf("source = %q, want %q", got, want)
			}
		}
		if code, _, _ := do(t, http.MethodGet, base+"/page/"); code != http.StatusBadRequest {
			t.Fatalf("GET /page/ = %d, want 400", code)
		}
	})

	t.Run("pages", func(t *testing.T) {
		keys := []string{corpus.Key(1), corpus.Key(2)}
		code, body, _ := do(t, http.MethodGet, base+"/pages?keys="+strings.Join(keys, ","))
		if code != http.StatusOK {
			t.Fatalf("GET /pages = %d: %s", code, body)
		}
		var got map[string]string
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			if got[k] != base64.StdEncoding.EncodeToString(corpus.Page(i+1)) {
				t.Fatalf("/pages body for %s does not match the corpus", k)
			}
		}
		if code, _, _ := do(t, http.MethodGet, base+"/pages"); code != http.StatusBadRequest {
			t.Fatalf("GET /pages without keys = %d, want 400", code)
		}
	})

	t.Run("stats", func(t *testing.T) {
		code, body, _ := do(t, http.MethodGet, base+"/stats")
		if code != http.StatusOK || !strings.HasPrefix(body, "hits ") || !strings.Contains(body, "\nerrors 0\n") {
			t.Fatalf("GET /stats = %d %q", code, body)
		}
	})

	t.Run("admin hot", func(t *testing.T) {
		key := corpus.Key(7)
		for _, c := range []struct {
			method, query string
			code          int
			body          string
		}{
			{http.MethodGet, "", http.StatusOK, ""},
			{http.MethodPost, "?key=" + key + "&op=promote", http.StatusOK, "hot true\n"},
			{http.MethodGet, "", http.StatusOK, key + "\n"},
			{http.MethodPost, "?key=" + key + "&op=demote", http.StatusOK, "demoted true\n"},
			{http.MethodGet, "", http.StatusOK, ""},
			{http.MethodPost, "?key=" + key, http.StatusOK, "hot true\n"},
			{http.MethodPost, "?op=promote", http.StatusBadRequest, "missing key\n"},
			{http.MethodPost, "?key=" + key + "&op=pin", http.StatusBadRequest, "bad op\n"},
			{http.MethodDelete, "", http.StatusMethodNotAllowed, "method not allowed\n"},
		} {
			code, body, _ := do(t, c.method, base+"/admin/hot"+c.query)
			if code != c.code || body != c.body {
				t.Fatalf("%s /admin/hot%s = %d %q, want %d %q", c.method, c.query, code, body, c.code, c.body)
			}
		}
	})

	t.Run("admin active", func(t *testing.T) {
		for _, c := range []struct {
			method, query string
			code          int
			body          string
		}{
			{http.MethodGet, "", http.StatusOK, "3\n"},
			{http.MethodPost, "?n=2", http.StatusOK, "active 2\n"},
			{http.MethodGet, "", http.StatusOK, "2\n"},
			{http.MethodPost, "?n=x", http.StatusBadRequest, "bad n\n"},
			{http.MethodPut, "", http.StatusMethodNotAllowed, "method not allowed\n"},
		} {
			code, body, _ := do(t, c.method, base+"/admin/active"+c.query)
			if code != c.code || body != c.body {
				t.Fatalf("%s /admin/active%s = %d %q, want %d %q", c.method, c.query, code, body, c.code, c.body)
			}
		}
	})
}
