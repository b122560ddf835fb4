package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one booted ampserved process.
type proc struct {
	cmd      *exec.Cmd
	addr     string        // protocol listener
	httpAddr string        // expvar endpoint
	out      chan struct{} // closed once the server's output ends
}

// freePort reserves a loopback port for -http (ampserved prints only the
// protocol listener's resolved address).
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// boot starts ampserved with default backends and waits for its listening
// line. Its output is drained until it exits.
func boot(bin, snapDir string) (*proc, error) {
	httpAddr, err := freePort()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-http", httpAddr, "-snapshot-dir", snapDir)
	cmd.Stdout, cmd.Stderr = pw, pw
	// The server must not outlive the benchmark, even one that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, httpAddr: httpAddr, out: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.out)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "ampserved: listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				addrc <- addr
			}
		}
	}()
	select {
	case p.addr = <-addrc:
		return p, nil
	case <-p.out:
		p.stop()
		return nil, errors.New("ampserved exited before listening")
	case <-time.After(20 * time.Second):
		p.stop()
		return nil, errors.New("ampserved did not start listening within 20s")
	}
}

// stop terminates the server and waits for it: SIGTERM, then SIGKILL if
// it has not exited within 10s.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.out:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.out
	}
	return p.cmd.Wait()
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// ctlConn is a plain request/reply connection for PING, STATS, TXSTATS,
// SAVE and the preload.
type ctlConn struct {
	c  net.Conn
	rd *bufio.Reader
}

func dial(addr string) (*ctlConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &ctlConn{c: c, rd: bufio.NewReaderSize(c, 1<<16)}, nil
}

func (c *ctlConn) Close() error { return c.c.Close() }

// do sends one line and returns its reply lines, up to "END" for STATS.
func (c *ctlConn) do(line string) ([]string, error) {
	c.c.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := io.WriteString(c.c, line+"\n"); err != nil {
		return nil, err
	}
	var out []string
	for {
		l, err := c.rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("%s: %w", line, err)
		}
		l = strings.TrimRight(l, "\r\n")
		if line != "STATS" {
			return []string{l}, nil
		}
		if l == "END" {
			return out, nil
		}
		out = append(out, l)
	}
}

// pipeline sends lines in chunks and checks each reply with want.
func (c *ctlConn) pipeline(lines [][]byte, want func(reply []byte) bool) (fails int, err error) {
	const chunk = 256
	c.c.SetDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	for lo := 0; lo < len(lines); lo += chunk {
		hi := min(lo+chunk, len(lines))
		buf = buf[:0]
		for _, l := range lines[lo:hi] {
			buf = append(append(buf, l...), '\n')
		}
		if _, err := c.c.Write(buf); err != nil {
			return fails, err
		}
		for range lines[lo:hi] {
			l, err := c.rd.ReadSlice('\n')
			if err != nil {
				return fails, err
			}
			if !want(bytes.TrimRight(l, "\r\n")) {
				fails++
			}
		}
	}
	return fails, nil
}

// serverStats is the subset of STATS, TXSTATS and expvar memstats the
// per-layer metrics are deltas of.
type serverStats struct {
	ops        map[string]int64 // "op NAME count=N" rows
	batchCount int64            // hist shard.batch count
	batchSum   int64            // hist shard.batch sum
	commits    int64
	aborts     int64
	mallocs    int64
	numGC      int64
}

func keyval(fields []string, key string) int64 {
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

func (p *proc) stats(c *ctlConn) (serverStats, error) {
	st := serverStats{ops: make(map[string]int64)}
	rows, err := c.do("STATS")
	if err != nil {
		return st, err
	}
	for _, r := range rows {
		f := strings.Fields(r)
		switch {
		case len(f) >= 3 && f[0] == "op":
			st.ops[f[1]] = keyval(f[2:], "count")
		case len(f) >= 3 && f[0] == "hist" && f[1] == "shard.batch":
			st.batchCount, st.batchSum = keyval(f[2:], "count"), keyval(f[2:], "sum")
		}
	}
	tx, err := c.do("TXSTATS")
	if err != nil {
		return st, err
	}
	f := strings.Fields(tx[0])
	st.commits, st.aborts = keyval(f, "commits"), keyval(f, "aborts")

	resp, err := http.Get("http://" + p.httpAddr + "/debug/vars")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats struct {
			Mallocs uint64
			NumGC   uint32
		} `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return st, fmt.Errorf("expvar: %w", err)
	}
	st.mallocs, st.numGC = int64(vars.Memstats.Mallocs), int64(vars.Memstats.NumGC)
	return st, nil
}

// cpuTicks reads the server's user+system time in clock ticks.
func cpuTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc/pid/stat")
	}
	u, _ := strconv.ParseInt(f[11], 10, 64)
	s, _ := strconv.ParseInt(f[12], 10, 64)
	return u + s, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTick = 10 * time.Millisecond

// peakRSSMB reads the server's VmHWM.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return float64(kb) / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/pid/status")
}

// hostCPU is the aggregate "cpu" row of /proc/stat.
type hostCPU struct{ total, idle, steal int64 }

func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f) && i <= 8; i++ { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		h.total += v
		switch i {
		case 4, 5:
			h.idle += v
		case 8:
			h.steal += v
		}
	}
	return h
}

// pct returns the steal and idle shares of the interval a..b.
func (a hostCPU) pct(b hostCPU) (steal, idle float64) {
	d := float64(b.total - a.total)
	if d <= 0 {
		return 0, 0
	}
	return 100 * float64(b.steal-a.steal) / d, 100 * float64(b.idle-a.idle) / d
}
