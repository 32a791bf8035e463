package cliutil

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"ucp/internal/journal"
	"ucp/internal/obs"
)

// PrintSpanTree renders a span tree indented on w, attributes sorted so
// the output is stable. Shared by the CLI tools' -trace flags (ucp-wcet,
// ucp-opt); the same trees feed ?trace=1 responses in ucp-serve.
func PrintSpanTree(w io.Writer, t *obs.SpanTree, depth int) {
	fmt.Fprintf(w, "%s%-16s %8.3fms", strings.Repeat("  ", depth), t.Name,
		float64(t.DurationUS)/1000)
	keys := make([]string, 0, len(t.Attrs))
	for k := range t.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %s=%v", k, t.Attrs[k])
	}
	if t.Dropped > 0 {
		fmt.Fprintf(w, "  dropped_children=%d", t.Dropped)
	}
	fmt.Fprintln(w)
	for _, c := range t.Children {
		PrintSpanTree(w, c, depth+1)
	}
}

// SaveTrace appends one span tree to the durable trace sink at dir,
// creating the sink if needed. It is the one-shot variant of ucp-serve's
// long-lived -trace-dir sink, used by the batch CLIs (ucp-bench, ucp-wcet,
// ucp-opt) where the process writes a single trace and exits.
func SaveTrace(dir, id string, t *obs.SpanTree) error {
	if dir == "" || t == nil {
		return nil
	}
	sink, err := journal.OpenSink(dir, 0)
	if err != nil {
		return err
	}
	werr := sink.WriteTrace(context.Background(), id, t)
	if cerr := sink.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
