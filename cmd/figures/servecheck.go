package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"hmcsim/internal/experiments"
	"hmcsim/internal/scenario"
)

// serveCheck replays a scenario-backed experiment through a running
// hmcsimd instance and diffs the server's rendered report against the
// registry entry's own run under the same options — the end-to-end
// check that the service runs the inputs it is sent and its cache
// serves exactly the bytes the engine produces (the local path is
// itself pinned by the golden-file tests). The options travel in
// their one wire form, overlays included. The experiment is posted
// twice so both the fresh and the cached response are compared; the
// second must be served from cache.
func serveCheck(baseURL, id string, opts experiments.Options) error {
	name, ok := strings.CutPrefix(id, "scn-")
	if !ok {
		return fmt.Errorf("serve-check wants a scenario-backed experiment id (scn-<name>), got %q", id)
	}
	e, err := experiments.ByID(id)
	if err != nil {
		return fmt.Errorf("unknown experiment id %q", id)
	}
	rep, err := e.Run(opts)
	if err != nil {
		return err
	}
	local, err := rep.JSON()
	if err != nil {
		return err
	}
	body, err := json.Marshal(struct {
		Name    string               `json:"name"`
		Format  string               `json:"format"`
		Options scenario.WireOptions `json:"options"`
	}{name, "json", opts.Options.Wire()})
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: 5 * time.Minute}
	post := func() ([]byte, string, error) {
		resp, err := client.Post(baseURL+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("server: %s: %s", resp.Status, b)
		}
		return b, resp.Header.Get("X-Cache"), nil
	}

	fresh, src1, err := post()
	if err != nil {
		return err
	}
	cached, src2, err := post()
	if err != nil {
		return err
	}
	if !bytes.Equal([]byte(local), fresh) {
		return fmt.Errorf("%s: server report differs from local run (%d vs %d bytes)", id, len(fresh), len(local))
	}
	if !bytes.Equal(fresh, cached) {
		return fmt.Errorf("%s: cached response differs from fresh response", id)
	}
	if src2 != "hit" && src2 != "disk-hit" {
		return fmt.Errorf("%s: second request not served from cache (X-Cache=%q)", id, src2)
	}
	fmt.Printf("serve-check %s: ok (first=%s second=%s, %d bytes match local run)\n", id, src1, src2, len(fresh))
	return nil
}
