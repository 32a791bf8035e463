package cliutil_test

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ucp/internal/cliutil"
	"ucp/internal/service"
)

// TestInvalidL2RefusedEverywhere feeds every kind of invalid L2 geometry
// through the four routes that accept one — the -l2-* flags, an
// ASSOCxBLOCKxCAPACITY string, the /v1/configs query, and an /v1/analyze
// body — and requires each route to refuse it.
func TestInvalidL2RefusedEverywhere(t *testing.T) {
	svc := service.New(service.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil)), Workers: 1})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})

	for _, g := range []struct {
		name                   string
		assoc, block, capacity int
		policy                 string
	}{
		{"zero associativity", 0, 32, 8192, ""},
		{"negative block", 4, -32, 8192, ""},
		{"block below 4 bytes", 4, 2, 8192, ""},
		{"capacity below one set", 4, 32, 64, ""},
		{"capacity not a whole number of sets", 3, 32, 8192, ""},
		{"plru without power-of-two ways", 3, 32, 8160, "plru"},
		{"unknown policy", 4, 32, 8192, "mru"},
	} {
		t.Run(g.name, func(t *testing.T) {
			fs := flag.NewFlagSet("l2", flag.ContinueOnError)
			resolve := cliutil.L2Flags(fs)
			args := []string{"-l2-assoc", strconv.Itoa(g.assoc), "-l2-block-bytes", strconv.Itoa(g.block),
				"-l2-capacity-bytes", strconv.Itoa(g.capacity)}
			if g.policy != "" {
				args = append(args, "-l2-policy", g.policy)
			}
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			if cfg, err := resolve(); err == nil {
				t.Errorf("flags accept %v", cfg)
			}

			s := fmt.Sprintf("%dx%dx%d", g.assoc, g.block, g.capacity)
			if g.policy != "" {
				s += ":" + g.policy
			}
			if cfg, err := cliutil.L2Geometry(s); err == nil {
				t.Errorf("geometry string %q accepted as %v", s, cfg)
			}

			q := fmt.Sprintf("?l2_assoc=%d&l2_block_bytes=%d&l2_capacity_bytes=%d&l2_policy=%s",
				g.assoc, g.block, g.capacity, g.policy)
			if code := status(t, http.MethodGet, ts.URL+"/v1/configs"+q, ""); code != http.StatusBadRequest {
				t.Errorf("/v1/configs%s = %d, want 400", q, code)
			}

			body := fmt.Sprintf(`{"program":"fibcall","config":"k1","tech":"45nm","runs":1,"l2":{"assoc":%d,"block_bytes":%d,"capacity_bytes":%d,"policy":%q}}`,
				g.assoc, g.block, g.capacity, g.policy)
			if code := status(t, http.MethodPost, ts.URL+"/v1/analyze", body); code != http.StatusBadRequest {
				t.Errorf("/v1/analyze %s = %d, want 400", body, code)
			}
		})
	}
}

func status(t *testing.T, method, url, body string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}
