package cluster_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"proteus/internal/cluster"
	"proteus/internal/faultinject"
	"proteus/internal/livestack/livecluster"
	"proteus/internal/transition"
)

// A flip with one relocation source partitioned away happens — the
// prefix changes, the window opens — so the admin endpoint must answer
// 200 with the new size and a warning, not 409; and the error the
// coordinator returns must be matchable, not a string to prefix-test.
func TestAdminActiveDegradedFlipIsSuccess(t *testing.T) {
	inj := faultinject.New(1)
	env := livecluster.Start(t, livecluster.Config{Nodes: 3, Cluster: cluster.Config{Faults: inj}})
	post := func(n string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		env.Coord.AdminActive(rec, httptest.NewRequest(http.MethodPost, "/admin/active?n="+n, nil))
		return rec
	}

	inj.Partition(2) // the dying node, the shrink's only digest source
	rec := post("2")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded flip answered %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "active 2\n") || !strings.Contains(body, "warning: ") || !strings.Contains(body, "[2]") {
		t.Fatalf("degraded flip body = %q, want \"active 2\" plus a warning naming node 2", body)
	}
	if ep := env.Coord.Epoch(); ep.Active != 2 || !ep.Open() || ep.Digests[2] != nil {
		t.Fatalf("epoch after degraded flip = %+v", ep)
	}

	// The same condition through the API, on a grow: typed, and naming
	// the node.
	inj.Heal(2)
	env.Coord.FinalizeNow()
	inj.Partition(1)
	err := env.Coord.SetActive(3)
	var degraded *transition.DegradedDigestError
	if !errors.As(err, &degraded) || len(degraded.Nodes) != 1 || degraded.Nodes[0] != 1 {
		t.Fatalf("SetActive with node 1 partitioned = %v, want a *DegradedDigestError naming node 1", err)
	}
	if env.Coord.Active() != 3 {
		t.Fatalf("Active = %d after a degraded flip, want 3", env.Coord.Active())
	}
	inj.Heal(1)
	if rec := post("2"); rec.Code != http.StatusOK || rec.Body.String() != "active 2\n" {
		t.Fatalf("clean flip answered %d %q", rec.Code, rec.Body)
	}

	// A refused decision is still a conflict, and changes nothing.
	if rec := post("9"); rec.Code != http.StatusConflict {
		t.Fatalf("out-of-range target answered %d, want 409", rec.Code)
	}
	if rec := post("x"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed target answered %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	env.Coord.AdminActive(rec, httptest.NewRequest(http.MethodGet, "/admin/active", nil))
	if rec.Body.String() != "2\n" {
		t.Fatalf("GET = %q, want 2", rec.Body)
	}
}

// The hot-set endpoint: GET lists, POST promotes (the default op) or
// demotes, a veto is "hot false" with 200, and malformed requests are
// refused without touching the set.
func TestAdminHot(t *testing.T) {
	inj := faultinject.New(1)
	env := livecluster.Start(t, livecluster.Config{Nodes: 3, Cluster: cluster.Config{HotReplicas: 2, Faults: inj}})
	call := func(method, query string) (int, string) {
		rec := httptest.NewRecorder()
		env.Coord.AdminHot(rec, httptest.NewRequest(method, "/admin/hot"+query, nil))
		return rec.Code, rec.Body.String()
	}
	owner := env.Coord.Epoch().Owner("k", 0)
	for _, c := range []struct {
		name, method, query string
		code                int
		body                string
	}{
		{"empty list", http.MethodGet, "", http.StatusOK, ""},
		{"promote", http.MethodPost, "?key=k&op=promote", http.StatusOK, "hot true\n"},
		{"promote by default", http.MethodPost, "?key=j", http.StatusOK, "hot true\n"},
		{"sorted list", http.MethodGet, "", http.StatusOK, "j\nk\n"},
		{"demote", http.MethodPost, "?key=k&op=demote", http.StatusOK, "demoted true\n"},
		{"demote cold", http.MethodPost, "?key=k&op=demote", http.StatusOK, "demoted false\n"},
		{"missing key", http.MethodPost, "?op=promote", http.StatusBadRequest, "missing key\n"},
		{"bad op", http.MethodPost, "?key=k&op=pin", http.StatusBadRequest, "bad op\n"},
		{"bad method", http.MethodPut, "?key=k", http.StatusMethodNotAllowed, "method not allowed\n"},
		{"after refusals", http.MethodGet, "", http.StatusOK, "j\n"},
	} {
		if code, body := call(c.method, c.query); code != c.code || body != c.body {
			t.Fatalf("%s: %s /admin/hot%s = %d %q, want %d %q", c.name, c.method, c.query, code, body, c.code, c.body)
		}
	}

	// An unreachable owner vetoes the promotion: still 200, not hot.
	inj.Partition(owner)
	if code, body := call(http.MethodPost, "?key=k"); code != http.StatusOK || body != "hot false\n" {
		t.Fatalf("promote with owner %d partitioned = %d %q, want 200 \"hot false\"", owner, code, body)
	}
}
