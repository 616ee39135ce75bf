package cluster_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"proteus/internal/faultinject"
	"proteus/internal/testutil/clustertest"
	"proteus/internal/transition"
)

// A flip with one relocation source partitioned away happens — the
// prefix changes, the window opens — so the admin endpoint must answer
// 200 with the new size and a warning, not 409; and the error the
// coordinator returns must be matchable, not a string to prefix-test.
func TestAdminActiveDegradedFlipIsSuccess(t *testing.T) {
	inj := faultinject.New(1)
	env := clustertest.Start(t, clustertest.Opts{Nodes: 3, InitialActive: 3, Faults: inj})
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
