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
