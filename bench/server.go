package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"piccolo/internal/obs"
)

// buildServer compiles cmd/piccolo-serve from the checkout the harness runs
// in, once per process. The Go build cache makes every process after the
// first find it built; build time is never part of a metric.
func buildServer(o options) (string, error) {
	serverBuild.once.Do(func() {
		bin := filepath.Join(o.outDir, "piccolo-serve")
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/piccolo-serve")
		cmd.Dir = o.root
		if out, err := cmd.CombinedOutput(); err != nil {
			serverBuild.err = fmt.Errorf("building piccolo-serve: %v\n%s", err, out)
			return
		}
		serverBuild.bin = bin
	})
	return serverBuild.bin, serverBuild.err
}

var serverBuild struct {
	once sync.Once
	bin  string
	err  error
}

// server is one running piccolo-serve child.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	http *http.Client

	mu      sync.Mutex
	logTail []string // last stderr lines, for failure reports
	waited  chan struct{}
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startServer launches the binary on an ephemeral port and returns once its
// "listening on" log line has given the address and /healthz answers.
func startServer(bin string, clients int, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-access-log=false"}, args...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, waited: make(chan struct{})}
	onExit(s.stop)
	s.http = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients + 1,
		MaxConnsPerHost:     clients + 1, // the load connections plus one for scrapes
	}}

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
			s.mu.Lock()
			s.logTail = append(s.logTail, line)
			if len(s.logTail) > 20 {
				s.logTail = s.logTail[1:]
			}
			s.mu.Unlock()
		}
		cmd.Wait()
		close(s.waited)
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.waited:
		return nil, fmt.Errorf("piccolo-serve exited before listening: %s", s.tail())
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("piccolo-serve did not report its address: %s", s.tail())
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := s.http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("piccolo-serve not healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.logTail, " | ")
}

// stop ends the child: SIGTERM (graceful drain, WAL close), SIGKILL after
// 5 s, and returns only once it has been reaped. Safe to call twice.
func (s *server) stop() {
	select {
	case <-s.waited:
		return
	default:
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.waited:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill()
		<-s.waited
	}
	s.http.CloseIdleConnections()
}

// procStatusMB reads one "Key:  N kB" line of /proc/<pid>/status in MB; 0
// once the process is gone.
func procStatusMB(pid int, key string) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// sampleRSS reads a process's resident set every 100 ms until the returned
// function is called, which reports the 90th percentile of the readings.
// The one-off high-water mark (VmHWM) moves by a quarter between identical
// runs of a Go server — it records where a burst of garbage met the
// collector's pacing — while the level the process sustains repeats to a
// few percent; the sustained level is what rss_mb gates.
func sampleRSS(pid int) (stop func() float64) {
	quit := make(chan struct{})
	done := make(chan []float64)
	go func() {
		var xs []float64
		tk := time.NewTicker(100 * time.Millisecond)
		defer tk.Stop()
		for {
			select {
			case <-tk.C:
				if mb := procStatusMB(pid, "VmRSS"); mb > 0 {
					xs = append(xs, mb)
				}
			case <-quit:
				done <- xs
				return
			}
		}
	}()
	return func() float64 {
		close(quit)
		xs := <-done
		if len(xs) == 0 {
			return procStatusMB(pid, "VmRSS")
		}
		sort.Float64s(xs)
		return xs[len(xs)*9/10]
	}
}

// cpuSeconds returns a process's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks (100/s on Linux).
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// scrape is one reading of everything the server emits about itself.
type scrape struct {
	prom  map[string]float64
	stats map[string]any
	cpu   float64
	took  time.Duration // GET /metrics round trip
}

func (s *server) scrape(ctx context.Context) (*scrape, error) {
	out := &scrape{cpu: cpuSeconds(s.cmd.Process.Pid)}
	t0 := time.Now()
	body, err := s.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out.took = time.Since(t0)
	if out.prom, err = obs.ParsePrometheus(strings.NewReader(string(body))); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	if body, err = s.get(ctx, "/stats"); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(body, &out.stats); err != nil {
		return nil, fmt.Errorf("/stats: %w", err)
	}
	return out, nil
}

func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// delta is after-minus-before of one /metrics sample (absent reads 0).
func delta(before, after *scrape, key string) float64 {
	return after.prom[key] - before.prom[key]
}

// statDelta is after-minus-before of one numeric /stats field.
func statDelta(before, after *scrape, key string) float64 {
	a, _ := after.stats[key].(float64)
	b, _ := before.stats[key].(float64)
	return a - b
}
