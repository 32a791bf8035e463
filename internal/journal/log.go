package journal

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"ucp/internal/faults"
)

// This file is the core both durable logs stand on: the job journal
// (journal.go) and the trace sink (sink.go). appendLog is the write side
// and readLines the read side; neither knows a record type.

// appendLog is one append-only NDJSON file. Appends are serialized by its
// mutex and each one is written whole and fsynced before it returns, so an
// acknowledged record survives a crash. With a seal hook it rotates by
// size; without one the file grows until it is closed.
type appendLog struct {
	site string // faults site fired before every append
	path string // the file appended to
	// maxBytes and seal make the log rotate: when an append would push a
	// non-empty file past maxBytes, the file is fsynced and closed, seal
	// moves it aside, and a fresh file is opened at path. seal runs with
	// mu held.
	maxBytes int64
	seal     func() error

	mu     sync.Mutex
	f      *os.File
	size   int64
	closed bool
}

// openLog opens path for appending with the extra open flags (os.O_CREATE,
// os.O_EXCL) and picks up its current size.
func openLog(site, path string, flag int) (*appendLog, error) {
	l := &appendLog{site: site, path: path}
	if err := l.open(flag); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *appendLog) open(flag int) error {
	f, err := os.OpenFile(l.path, flag|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("%s: %w", l.site, err)
	}
	l.f, l.size = f, 0
	if fi, err := f.Stat(); err == nil {
		l.size = fi.Size()
	}
	return nil
}

// append fires the faults site (keyed by key), marshals v as one line and
// writes and fsyncs it. Callers treat append errors as a durability
// downgrade, never as a reason to fail the work being logged.
func (l *appendLog) append(ctx context.Context, key string, v any) error {
	if err := faults.Fire(ctx, l.site, key); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: marshal: %w", l.site, err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("%s: %s is closed", l.site, l.path)
	}
	if l.seal != nil && l.size > 0 && l.size+int64(len(b)) > l.maxBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(b)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("%s: write: %w", l.site, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("%s: sync: %w", l.site, err)
	}
	return nil
}

// rotate seals the full file and opens a fresh one. Caller holds l.mu.
func (l *appendLog) rotate() error {
	if err := l.syncClose(); err != nil {
		return err
	}
	if err := l.seal(); err != nil {
		return fmt.Errorf("%s: rotate: %w", l.site, err)
	}
	return l.open(os.O_CREATE)
}

// syncClose fsyncs and closes the file. Caller holds l.mu.
func (l *appendLog) syncClose() error {
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("%s: close: %w", l.site, err)
	}
	return nil
}

// close fsyncs and closes the file; later appends fail. Idempotent.
func (l *appendLog) close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.syncClose()
}

// maxLine bounds one line on reads. A job-journal cell record embeds one
// result (well under a kilobyte) and a deep sweep trace runs to a few
// hundred KiB, so 8 MiB is generous headroom for both.
const maxLine = 8 << 20

// readLines feeds every non-empty line of one NDJSON file to accept and
// counts the lines it rejects (a torn tail after a crash, corruption, a
// record that breaks its format's rules) in skipped. A rejected line never
// ends the read. A line longer than maxLine does: the read stops there,
// keeping everything before it, which is the torn-tail contract. err is
// only the error opening the file.
func readLines(path string, accept func(line []byte) bool) (skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && !accept(line) {
			skipped++
		}
	}
	return skipped, nil
}
