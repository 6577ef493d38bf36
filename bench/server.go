package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cad/internal/mts"
	"cad/internal/serve"
)

// findRoot walks up from the working directory to the repository root: the
// directory holding go.mod and cmd/cadserve.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cadserve", "main.go")); err == nil {
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (go.mod with cmd/cadserve) above the working directory")
		}
		dir = parent
	}
}

// buildCadserve compiles the server under test from root into dir.
func buildCadserve(root, dir string) (string, error) {
	bin := filepath.Join(dir, "cadserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/cadserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/cadserve: %v\n%s", err, out)
	}
	return bin, nil
}

// node is one running cadserve process. exited closes once the process
// has been waited for.
type node struct {
	id, url string
	cmd     *exec.Cmd
	log     *os.File
	exited  chan struct{}
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startNodes launches n cadserve processes with fresh write-ahead logs
// under dir (a cluster of n when n > 1) and waits until each is ready. Each
// process's stderr goes to a file in dir.
func startNodes(bin, dir string, n int, webhookURL string) ([]*node, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*node, n)
	for i := range nodes {
		id := string(rune('a' + i))
		nodes[i] = &node{id: id, url: fmt.Sprintf("http://127.0.0.1:%d", ports[i])}
	}
	for i, nd := range nodes {
		args := []string{
			"-sensors", "2", "-addr", strings.TrimPrefix(nd.url, "http://"),
			"-wal", filepath.Join(dir, "wal-"+nd.id), "-fsync", "interval", "-capacity", "128",
		}
		if webhookURL != "" {
			args = append(args, "-webhook", webhookURL)
		}
		if n > 1 {
			var peers []string
			for j, p := range nodes {
				if j != i {
					peers = append(peers, p.id+"="+p.url)
				}
			}
			args = append(args, "-node-id", nd.id, "-advertise", nd.url, "-peers", strings.Join(peers, ","))
		}
		nd.log, err = os.Create(filepath.Join(dir, "cadserve-"+nd.id+".log"))
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nd.cmd = exec.Command(bin, args...)
		nd.cmd.Stdout, nd.cmd.Stderr = nd.log, nd.log
		// Should the benchmark itself be killed, the kernel kills the
		// server too instead of leaving it running.
		nd.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := nd.cmd.Start(); err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("start cadserve %s: %w", nd.id, err)
		}
		nd.exited = make(chan struct{})
		go func(nd *node) {
			_ = nd.cmd.Wait() // a killed process reports its signal
			close(nd.exited)
		}(nd)
	}
	for _, nd := range nodes {
		if err := nd.waitReady(20 * time.Second); err != nil {
			stopNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

// waitReady polls /readyz until it answers 200.
func (nd *node) waitReady(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := c.Get(nd.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-nd.exited:
			return fmt.Errorf("cadserve %s exited during start-up (log: %s)", nd.id, nd.log.Name())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("cadserve %s not ready within %v (log: %s)", nd.id, limit, nd.log.Name())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (nd *node) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", nd.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", nd.cmd.Process.Pid)
}

// stopNodes kills every started process and waits for it to exit.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		if nd == nil {
			continue
		}
		if nd.exited != nil {
			_ = nd.cmd.Process.Kill() // the process may already have exited
			<-nd.exited
		}
		if nd.log != nil {
			nd.log.Close()
		}
	}
}

// call issues one request and decodes a 2xx JSON answer into out (when
// non-nil); any other status is an error carrying the body.
func call(c *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// createStreams registers every stream through entry (the cluster routes
// each to its owner) and ingests its warm-up prefix as one NDJSON batch.
func createStreams(c *http.Client, entry string, w *workload) error {
	for _, st := range w.streams {
		cfg := st.cfg
		body, err := json.Marshal(serve.CreateStreamRequest{ID: st.id, Sensors: st.series.Sensors(), Config: &cfg})
		if err != nil {
			return err
		}
		if err := call(c, http.MethodPost, entry+"/v1/streams", body, nil); err != nil {
			return err
		}
	}
	for _, st := range w.streams {
		body := encodeColumns(nil, st.series, 0, w.warmup)
		if err := call(c, http.MethodPost, entry+"/v1/streams/"+st.id+"/ingest", body, nil); err != nil {
			return err
		}
	}
	return nil
}

// encodeColumns appends the ingest body for columns [from, from+n) of
// series: one {"readings":[…]} object per column, newline-separated. The
// shortest round-tripping float format makes the server parse exactly the
// values the in-process reference sees.
func encodeColumns(dst []byte, series *mts.MTS, from, n int) []byte {
	for c := from; c < from+n; c++ {
		dst = append(dst, `{"readings":[`...)
		for i := 0; i < series.Sensors(); i++ {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, series.Row(i)[c], 'g', -1, 64)
		}
		dst = append(dst, "]}\n"...)
	}
	return dst
}

// serverTime is a cumulative request-duration reading of one route.
type serverTime struct {
	sum   float64
	count float64
}

// scrapeIngestTime reads the server's own ingest-route latency histogram
// (sum and count) from /metrics.
func scrapeIngestTime(c *http.Client, url string) (serverTime, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return serverTime{}, err
	}
	defer resp.Body.Close()
	var st serverTime
	const labels = `{path="/v1/streams/{id}/ingest"} `
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var dst *float64
		var rest string
		if r, ok := strings.CutPrefix(line, "http_request_duration_seconds_sum"+labels); ok {
			dst, rest = &st.sum, r
		} else if r, ok := strings.CutPrefix(line, "http_request_duration_seconds_count"+labels); ok {
			dst, rest = &st.count, r
		} else {
			continue
		}
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return serverTime{}, fmt.Errorf("metrics line %q: %w", line, err)
		}
		*dst = v
	}
	return st, sc.Err()
}
