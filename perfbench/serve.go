package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/voxset/voxset/internal/server"
)

// serverSlots pins the server's query-slot count to the two CPUs the
// benchmark is sized for, instead of one per CPU of whatever machine
// runs it.
const serverSlots = 2

// Request headers that carry a traced request's id and its client span
// to the handler wrapper.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// instance is one server.Server listening on a loopback port.
type instance struct {
	hs   *http.Server
	url  string
	done chan error
	cl   *http.Client
}

// startServer serves cfg on 127.0.0.1 and returns once /healthz answers
// 200. With a tracer, every request carrying hdrReq gets a
// server.handler span around Handler().ServeHTTP.
func startServer(cfg server.Config, tr *Tracer) (*instance, error) {
	s, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := s.Handler()
	if tr != nil {
		h = traceHandler(h, tr)
	}
	in := &instance{
		hs:   &http.Server{Handler: h},
		url:  "http://" + l.Addr().String(),
		done: make(chan error, 1),
		cl: &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
		},
	}
	go func() { in.done <- in.hs.Serve(l) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := in.cl.Get(in.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return in, nil
			}
		}
		if time.Now().After(deadline) {
			in.stop()
			return nil, fmt.Errorf("server not ready after 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the server down and waits for its serve loop to exit.
func (in *instance) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := in.hs.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.cl.CloseIdleConnections()
	return err
}

func traceHandler(next http.Handler, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		id := tr.Begin(req, parent, "server.handler")
		next.ServeHTTP(w, r)
		tr.End(id)
	})
}

// sample is one request of a timed phase.
type sample struct {
	j      int           // script position
	ms     float64       // latency
	done   time.Duration // completion, from the start of the phase
	status int
	body   []byte
	err    error
}

func (s *sample) failed() bool { return s.err != nil || s.status/100 != 2 }

// post sends one request and reads the whole answer; the latency spans
// both. req/span tag a traced request (0 = untraced).
func (in *instance) post(path string, body []byte, req, span int64) sample {
	hr, err := http.NewRequest(http.MethodPost, in.url+path, bytes.NewReader(body))
	if err != nil {
		return sample{err: err}
	}
	if req != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatInt(span, 10))
	}
	t := time.Now()
	resp, err := in.cl.Do(hr)
	if err != nil {
		return sample{ms: ms(time.Since(t)), err: err}
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return sample{ms: ms(time.Since(t)), status: resp.StatusCode, body: b, err: err}
}

// phase is the outcome of a closed-loop timed phase.
type phase struct {
	samples []sample // in script order
	wall    time.Duration
}

// closedLoop runs clients closed-loop clients over script positions
// 0, 1, 2, ... (shared, in order) until at least minDur has passed and
// at least minN requests have completed, or maxN positions are used up.
// do sends the request at position j from client c.
func closedLoop(clients int, minDur time.Duration, minN, maxN int, do func(c, j int) sample) phase {
	var next, completed atomic.Int64
	samples := make([]sample, maxN)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if time.Since(start) >= minDur && completed.Load() >= int64(minN) {
					return
				}
				j := int(next.Add(1) - 1)
				if j >= maxN {
					return
				}
				s := do(c, j)
				s.j, s.done = j, time.Since(start)
				samples[j] = s
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	// Every position taken below maxN was sent, so the samples are the
	// script's first positions, in order.
	return phase{samples: samples[:min(int(next.Load()), maxN)], wall: time.Since(start)}
}

// readInto reads the file at path into *buf, growing it as needed, and
// returns the filled prefix. Reusing one buffer per client keeps the
// benchmark's own allocations out of the server's garbage collection.
func readInto(buf *[]byte, path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	n := int(fi.Size())
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	b := (*buf)[:n]
	_, err = io.ReadFull(f, b)
	return b, err
}

// prefix is the phase cut to its first n script positions, ending when
// the last of them completed. Every run of a seed then measures the
// same requests, whatever the machine's speed.
func (p phase) prefix(n int) phase {
	n = min(n, len(p.samples))
	out := phase{samples: p.samples[:n]}
	for _, s := range out.samples {
		out.wall = max(out.wall, s.done)
	}
	return out
}

func (p phase) latencies(keep func(j int) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if keep == nil || keep(s.j) {
			out = append(out, s.ms)
		}
	}
	return out
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// RSS high-water mark, so peakRSSMB afterwards covers only what runs in
// between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the RSS high-water mark (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// sequential sends script positions 0..n-1 one at a time and returns
// the samples and the GC pause time they cost.
func sequential(n int, send func(j int) sample) ([]sample, time.Duration) {
	gc0 := gcPauseTotal()
	out := make([]sample, n)
	for j := range n {
		out[j] = send(j)
		out[j].j = j
	}
	return out, gcPauseTotal() - gc0
}

// gcPauseTotal returns the cumulative stop-the-world GC pause time.
func gcPauseTotal() time.Duration {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return time.Duration(m.PauseTotalNs)
}
