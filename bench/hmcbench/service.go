package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procGroup tracks every child process so each exit path (return,
// panic, timeout, signal) can stop them all.
type procGroup struct {
	mu   sync.Mutex
	live map[*exec.Cmd]struct{}
}

// command builds a child that is killed when ctx ends, and by the
// kernel if this process dies first.
func (g *procGroup) command(ctx context.Context, name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.SysProcAttr = childAttr()
	cmd.WaitDelay = 5 * time.Second
	return cmd
}

func (g *procGroup) start(cmd *exec.Cmd) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return err
	}
	if g.live == nil {
		g.live = map[*exec.Cmd]struct{}{}
	}
	g.live[cmd] = struct{}{}
	return nil
}

// wait reaps cmd and forgets it.
func (g *procGroup) wait(cmd *exec.Cmd) error {
	err := cmd.Wait()
	g.mu.Lock()
	delete(g.live, cmd)
	g.mu.Unlock()
	return err
}

func (g *procGroup) runWait(cmd *exec.Cmd) error {
	if err := g.start(cmd); err != nil {
		return err
	}
	return g.wait(cmd)
}

// killAll kills every live child and waits for each to end.
func (g *procGroup) killAll() {
	g.mu.Lock()
	cmds := make([]*exec.Cmd, 0, len(g.live))
	for c := range g.live {
		cmds = append(cmds, c)
	}
	g.mu.Unlock()
	for _, c := range cmds {
		c.Process.Kill()
		g.wait(c)
	}
}

// buildServer compiles cmd/hmcsimd into a fresh directory under the
// repository's .bench_build, before anything is timed.
func (b *bench) buildServer(ctx context.Context) (bin string, cleanup func(), err error) {
	base := filepath.Join(b.cfg.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "hmcsimd-")
	if err != nil {
		return "", nil, err
	}
	cleanup = func() { os.RemoveAll(dir) }
	bin = filepath.Join(dir, "hmcsimd")
	cmd := b.procs.command(ctx, "go", "build", "-o", bin, "./cmd/hmcsimd")
	cmd.Dir = b.cfg.root
	cmd.Stderr = os.Stderr
	if err := b.procs.runWait(cmd); err != nil {
		cleanup()
		return "", nil, fmt.Errorf("build hmcsimd: %w", err)
	}
	return bin, cleanup, nil
}

// server is one spawned hmcsimd.
type server struct {
	g    *procGroup
	cmd  *exec.Cmd
	base string
	http *http.Client
}

// startServer spawns hmcsimd on an ephemeral port and returns once
// /healthz answers 200, with the time from exec to that answer.
func (b *bench) startServer(ctx context.Context, bin string) (*server, time.Duration, error) {
	t0 := time.Now()
	cmd := b.procs.command(ctx, bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := b.procs.start(cmd); err != nil {
		return nil, 0, err
	}
	s := &server{g: b.procs, cmd: cmd, http: &http.Client{Transport: &http.Transport{
		// Two keep-alive connections: one per client goroutine.
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
	rd := bufio.NewReader(stdout)
	line, err := rd.ReadString('\n')
	if err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("hmcsimd did not report its address: %w", err)
	}
	go io.Copy(io.Discard, rd)
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "hmcsimd listening on ")
	if _, _, err := net.SplitHostPort(addr); !ok || err != nil {
		s.kill()
		return nil, 0, fmt.Errorf("unexpected hmcsimd banner %q", line)
	}
	s.base = "http://" + addr
	for {
		if code, _, err := s.get(ctx, "/healthz"); err == nil && code == http.StatusOK {
			return s, time.Since(t0), nil
		}
		if ctx.Err() != nil || time.Since(t0) > 30*time.Second {
			s.kill()
			return nil, 0, errors.New("hmcsimd never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the server with SIGTERM and waits for it to exit.
func (s *server) stop() error {
	s.http.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	return s.g.wait(s.cmd)
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	s.g.wait(s.cmd)
}

func (s *server) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// post sends one /v1/run request and returns status, cache verdict
// and body.
func (s *server) post(ctx context.Context, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Cache"), out, err
}

// cacheStats reads the result-cache counters from /healthz.
func (s *server) cacheStats(ctx context.Context) (hits, misses, coalesced float64, err error) {
	code, body, err := s.get(ctx, "/healthz")
	if err != nil {
		return 0, 0, 0, err
	}
	if code != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("/healthz: status %d", code)
	}
	var h struct {
		Cache struct{ Hits, Misses, Coalesced float64 }
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return 0, 0, 0, err
	}
	return h.Cache.Hits, h.Cache.Misses, h.Cache.Coalesced, nil
}
