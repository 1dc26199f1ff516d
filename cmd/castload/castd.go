package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clientTimeout bounds one request; a slower answer counts as an error.
const clientTimeout = 2 * time.Second

// buildCastd compiles ./cmd/castd of the checkout at root into dir.
func buildCastd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "castd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/castd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building castd: %w", err)
	}
	return bin, nil
}

// node is one castd child process and castload's connections to it. The
// load workers own one connection each; set-up, scrapes and artifact
// fetches run between load phases on the first one, so castload never
// holds more connections than the workload's total.
type node struct {
	base   string // http://host:port
	cmd    *exec.Cmd
	conns  []*conn
	exited chan struct{} // closed once the process has been reaped
	log    *tailBuffer
}

// startNodes launches n castd processes on free loopback ports. With more
// than one they form a cluster: only -addr, -peers and -self-url are set,
// every other flag keeps its default.
func startNodes(bin string, n, conns int) ([]*node, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, p := range ports {
		urls = append(urls, "http://127.0.0.1:"+strconv.Itoa(p))
	}
	var nodes []*node
	for i, p := range ports {
		addr := "127.0.0.1:" + strconv.Itoa(p)
		args := []string{"-addr", addr}
		if n > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-self-url", urls[i])
		}
		nd := &node{
			base:   urls[i],
			cmd:    exec.Command(bin, args...),
			exited: make(chan struct{}),
			log:    newTailBuffer(64<<10, "castd: listening"),
		}
		for c := 0; c < conns; c++ {
			nd.conns = append(nd.conns, &conn{addr: addr})
		}
		nd.cmd.Stdout, nd.cmd.Stderr = nd.log, nd.log
		setPdeathsig(nd.cmd)
		if err := nd.cmd.Start(); err != nil {
			stopNodes(nodes)
			return nil, fmt.Errorf("starting castd: %w", err)
		}
		go func() {
			nd.cmd.Wait()
			close(nd.exited)
		}()
		nodes = append(nodes, nd)
	}
	return nodes, nil
}

// freePorts reserves n distinct loopback ports by listening on port 0,
// then releases them for castd to bind.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// waitHealthy polls /healthz until it answers 200. castd logs that it
// is listening the moment its port is bound; that line wakes the poll at
// once, so set-up time is not rounded up to the 1 ms poll interval.
func (nd *node) waitHealthy(ctx context.Context) error {
	deadline := time.Now().Add(10 * time.Second)
	listening := nd.log.marked
	for {
		if _, status, _ := nd.get("/healthz"); status == http.StatusOK {
			return nil
		}
		select {
		case <-listening:
			listening = nil
		case <-nd.exited:
			return fmt.Errorf("castd %s exited during start-up: %s", nd.base, nd.log.String())
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("castd %s not healthy after 10s: %s", nd.base, nd.log.String())
		}
	}
}

// stopNodes sends SIGTERM to every node, waits for each to exit, and kills
// any that has not drained within 5 s.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		for _, c := range nd.conns {
			c.close()
		}
		nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range nodes {
		select {
		case <-nd.exited:
		case <-time.After(5 * time.Second):
			nd.cmd.Process.Kill()
			<-nd.exited
		}
	}
}

// get fetches path over the node's first connection and returns the body
// of a 200 answer. Only call it while no load worker runs.
func (nd *node) get(path string) ([]byte, int, error) {
	return getOn(nd.conns[0], path)
}

func getOn(c *conn, path string) ([]byte, int, error) {
	var buf bytes.Buffer
	status, err := c.do(http.MethodGet, path, nil, "", &buf)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: %d %s", path, status, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), status, err
}

// register PUTs a schema text under id and returns its content hash.
func (nd *node) register(id, text string) (string, error) {
	var buf bytes.Buffer
	status, err := nd.conns[0].do(http.MethodPut, "/schemas/"+id, []byte(text), "", &buf)
	if err != nil {
		return "", fmt.Errorf("registering %s: %w", id, err)
	}
	var e struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || status != http.StatusOK {
		return "", fmt.Errorf("registering %s: %d %s", id, status, bytes.TrimSpace(buf.Bytes()))
	}
	return e.Hash, nil
}

// scrape is one /metrics page: sample name with labels → value.
type scrape map[string]float64

func (nd *node) scrape() (scrape, error) {
	body, _, err := nd.get("/metrics")
	if err != nil {
		return nil, err
	}
	s := scrape{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// matching sums every sample of family whose labels contain label.
func (s scrape) matching(family, label string) float64 {
	var total float64
	for k, v := range s {
		if strings.HasPrefix(k, family+"{") && strings.Contains(k, label) {
			total += v
		}
	}
	return total
}

// tailBuffer keeps the last max bytes written to it (a child's log, for
// error messages) and closes marked once marker has been written.
type tailBuffer struct {
	mu     sync.Mutex
	max    int
	buf    []byte
	marker []byte
	marked chan struct{}
}

func newTailBuffer(max int, marker string) *tailBuffer {
	return &tailBuffer{max: max, marker: []byte(marker), marked: make(chan struct{})}
}

func (b *tailBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if b.marker != nil && bytes.Contains(b.buf, b.marker) {
		close(b.marked)
		b.marker = nil
	}
	if len(b.buf) > b.max {
		b.buf = append(b.buf[:0], b.buf[len(b.buf)-b.max:]...)
	}
	return len(p), nil
}

func (b *tailBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

var errNoArtifact = errors.New("no node holds the artifact")

// fetchArtifact downloads a pair artifact blob from whichever node holds it.
func fetchArtifact(nodes []*node, key string) ([]byte, error) {
	for _, nd := range nodes {
		if blob, status, err := nd.get("/artifacts/" + key); err == nil {
			return blob, nil
		} else if status != http.StatusNotFound {
			return nil, err
		}
	}
	return nil, errNoArtifact
}
