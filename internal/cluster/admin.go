package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"proteus/internal/transition"
)

// AdminActive is the provisioning endpoint the front ends mount at
// /admin/active: GET reads the active-prefix size, POST ?n=<k> runs
// SetActive(k). A transition that happened with some digests missing
// is a success with a warning line — the prefix did change; only a
// refused decision answers 409.
func (c *Coordinator) AdminActive(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		_, _ = fmt.Fprintf(w, "%d\n", c.Active())
	case http.MethodPost:
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		err = c.SetActive(n)
		var degraded *transition.DegradedDigestError
		if err != nil && !errors.As(err, &degraded) {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		_, _ = fmt.Fprintf(w, "active %d\n", c.Active())
		if degraded != nil {
			_, _ = fmt.Fprintf(w, "warning: %v\n", degraded)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// AdminHot is the hot-key endpoint the front ends mount at /admin/hot:
// GET lists the promoted set, POST ?key=<k>&op=promote|demote drives it
// by hand (op defaults to promote). A vetoed promotion — an owner
// unreachable, or HotReplicas not above Replicas — answers 200 "hot
// false", not an error: nothing changed, and nothing was refused.
func (c *Coordinator) AdminHot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		for _, k := range c.HotKeys() {
			_, _ = fmt.Fprintln(w, k)
		}
	case http.MethodPost:
		key := r.URL.Query().Get("key")
		if key == "" {
			http.Error(w, "missing key", http.StatusBadRequest)
			return
		}
		switch op := r.URL.Query().Get("op"); op {
		case "", "promote":
			_, _ = fmt.Fprintf(w, "hot %v\n", c.Promote(key))
		case "demote":
			_, _ = fmt.Fprintf(w, "demoted %v\n", c.Demote(key))
		default:
			http.Error(w, "bad op", http.StatusBadRequest)
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}
