package serve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// resultSpool is the one place a synthesis job's release lives. It
// accumulates the job's CSV incrementally and lets concurrent readers
// stream it while it is still being written — the mechanism behind
// result.csv delivering windows as they complete — and, once sealed,
// serves it whole. It has two backends:
//
//   - file-backed (path != ""): appends go to a file under the state
//     dir's results/ directory; each reader opens its own descriptor.
//     The file outlives the process, so a restarted daemon serves the
//     finished result directly instead of regenerating it.
//   - memory-backed (path == ""): appends go to an in-memory buffer;
//     used when the daemon runs without durable state, or when a
//     results/ file cannot be created.
//
// The result-retention sweep evicts either backend (evict).
//
// Writes happen from exactly one goroutine (the job runner); finish
// seals the spool. Readers may arrive any time, including before the
// first byte and after the process that wrote the file died.
type resultSpool struct {
	mu     sync.Mutex
	path   string
	f      *os.File // append handle while the job runs (file-backed)
	mem    []byte
	size   int64
	done   bool
	fail   string        // terminal error, when the job died mid-stream
	notify chan struct{} // closed and replaced on every state change
}

// newResultSpool opens a spool; path "" selects the memory backend.
func newResultSpool(path string) (*resultSpool, error) {
	rs := &resultSpool{path: path, notify: make(chan struct{})}
	if path != "" {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
		if err != nil {
			return nil, fmt.Errorf("serve: create result spool: %w", err)
		}
		rs.f = f
	}
	return rs, nil
}

// recoveredResultSpool wraps an already-complete result file from a
// previous daemon generation.
func recoveredResultSpool(path string, size int64) *resultSpool {
	return &resultSpool{path: path, size: size, done: true, notify: make(chan struct{})}
}

// Write appends CSV bytes and wakes streaming readers.
func (rs *resultSpool) Write(p []byte) (int, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.done {
		return 0, fmt.Errorf("serve: result spool is sealed")
	}
	if rs.f != nil {
		n, err := rs.f.Write(p)
		rs.size += int64(n)
		if err != nil {
			return n, err
		}
	} else {
		rs.mem = append(rs.mem, p...)
		rs.size += int64(len(p))
	}
	rs.wake()
	return len(p), nil
}

// finish seals the spool. An empty errMsg means the result is
// complete; file-backed spools are fsync'd so a journaled "done"
// terminal always finds the full file after a crash. When that fsync
// or the close fails, the file may be torn: it is deleted, the spool
// fails, and the error is returned so the job fails rather than being
// journaled done. A non-empty errMsg marks the stream failed: readers
// get the error after the bytes already streamed, and the partial file
// is deleted.
func (rs *resultSpool) finish(errMsg string) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.done {
		return nil
	}
	rs.done = true
	var err error
	if rs.f != nil {
		if errMsg == "" {
			err = rs.f.Sync()
		}
		if cerr := rs.f.Close(); err == nil {
			err = cerr
		}
		rs.f = nil
		if err != nil && errMsg == "" {
			errMsg = fmt.Sprintf("seal result: %v", err)
		}
		if errMsg != "" {
			_ = os.Remove(rs.path)
		}
	}
	if errMsg != "" {
		rs.mem = nil
	}
	rs.fail = errMsg
	rs.wake()
	return err
}

// evict releases a sealed spool's result (the count/TTL retention
// policy). A file spool's results/ file is deleted and no failure is
// set: a reader that already holds a descriptor streams the complete
// file to a clean EOF. A memory spool's bytes are dropped, so its
// followers get the eviction error. The job then holds no spool, so
// result.csv answers 410 Gone and an identical resubmit regenerates
// the result deterministically at zero charge.
func (rs *resultSpool) evict() {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.path != "" {
		_ = os.Remove(rs.path)
	} else {
		rs.mem = nil
		rs.fail = "result evicted from the retention window"
	}
	rs.wake()
}

// Content opens a sealed, complete spool for whole-result serving: it
// feeds http.ServeContent, which sets Content-Length, honors range
// requests and, for the file backend, hands the body copy to sendfile
// — so the file backend returns the *os.File itself, with its mod
// time. The memory backend returns a reader over the sealed buffer,
// which is append-sealed and never mutated, so sharing it is safe. ok
// is false while the job is still streaming, and for failed or evicted
// spools.
func (rs *resultSpool) Content() (c io.ReadSeekCloser, modTime time.Time, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if !rs.done || rs.fail != "" {
		return nil, time.Time{}, false
	}
	if rs.path == "" {
		return memContent{bytes.NewReader(rs.mem)}, time.Time{}, true
	}
	f, err := os.Open(rs.path)
	if err != nil {
		return nil, time.Time{}, false
	}
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, time.Time{}, false
	}
	return f, st.ModTime(), true
}

// memContent is a memory spool's sealed bytes as Content returns them.
type memContent struct{ *bytes.Reader }

func (memContent) Close() error { return nil }

// servable reports whether a reader starting now could stream the
// complete result.
func (rs *resultSpool) servable() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.fail != "" {
		return false
	}
	if rs.path != "" && rs.done {
		_, err := os.Stat(rs.path)
		return err == nil
	}
	return true // still streaming (readers follow), or sealed in memory
}

func (rs *resultSpool) wake() {
	close(rs.notify)
	rs.notify = make(chan struct{})
}

// state snapshots (size, done, fail) plus the channel that signals
// the next change.
func (rs *resultSpool) state() (int64, bool, string, <-chan struct{}) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.size, rs.done, rs.fail, rs.notify
}

// NewReader returns a reader that streams the spool from the start,
// blocking at the tail until more bytes arrive or the spool is
// sealed. A sealed-with-error spool yields the error after the bytes
// written before the failure (memory backend: after nothing, the
// bytes are gone).
func (rs *resultSpool) NewReader() (io.ReadCloser, error) {
	if rs.path != "" {
		f, err := os.Open(rs.path)
		if err != nil {
			return nil, err
		}
		return &spoolReader{rs: rs, f: f}, nil
	}
	return &spoolReader{rs: rs}, nil
}

// spoolReader follows a resultSpool, file- or memory-backed.
type spoolReader struct {
	rs  *resultSpool
	f   *os.File // file backend
	off int64
}

func (r *spoolReader) Read(p []byte) (int, error) {
	for {
		size, done, fail, notify := r.rs.state()
		if r.off < size {
			var (
				n   int
				err error
			)
			if r.f != nil {
				n, err = r.f.ReadAt(p, r.off)
				if err == io.EOF && n > 0 {
					err = nil // more may be coming; EOF is decided below
				}
			} else {
				// Re-read fail under the same lock as mem: evict() can
				// land between the state() snapshot above and here, in
				// which case the stale snapshot's fail is empty while mem
				// is already gone.
				r.rs.mu.Lock()
				mem, memFail := r.rs.mem, r.rs.fail
				r.rs.mu.Unlock()
				if mem == nil {
					if memFail == "" {
						memFail = "result is no longer available"
					}
					return 0, fmt.Errorf("serve: %s", memFail)
				}
				n = copy(p, mem[r.off:])
			}
			r.off += int64(n)
			return n, err
		}
		if done {
			if fail != "" {
				return 0, fmt.Errorf("serve: %s", fail)
			}
			return 0, io.EOF
		}
		<-notify
	}
}

func (r *spoolReader) Close() error {
	if r.f != nil {
		return r.f.Close()
	}
	return nil
}
