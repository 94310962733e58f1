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
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
)

// daemon is one mssd process on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches mssd on dataDir and waits until healthz answers.
func startDaemon(bin, dataDir, logPath string, client *http.Client) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-data-dir", dataDir, "-retry-jitter", "0")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark itself be killed, the kernel kills mssd too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting mssd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: logf}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("mssd did not become ready within 30s (log: %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill sends SIGKILL and waits for the process to end.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.log.Close()
}

// cpuMs reads the process's user+system CPU time from /proc/<pid>/stat.
func (d *daemon) cpuMs() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (utime + stime) * 10, nil
}

// peakRSSMB reads VmHWM from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// call sends one JSON request and decodes a 200 answer into out.
func call(client *http.Client, method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// request is one pre-encoded HTTP call of the set-up.
type request struct {
	method, path string
	body         []byte
}

// uploadRequests encodes the set-up once, outside any timed region: a PUT
// per corpus and, for a live corpus, an append of its last appendUnit
// symbols, which makes it live.
func uploadRequests(corpora []corpusSpec) ([]request, error) {
	var reqs []request
	for _, c := range corpora {
		text := c.text
		if c.live {
			text = c.text[:len(c.text)-appendUnit]
		}
		body, err := json.Marshal(map[string]any{"text": text, "model": c.model})
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{http.MethodPut, "/v1/corpora/" + c.name, body})
		if c.live {
			body, _ := json.Marshal(map[string]string{"text": c.text[len(c.text)-appendUnit:]})
			reqs = append(reqs, request{http.MethodPost, "/v1/corpora/" + c.name + "/append", body})
		}
	}
	return reqs, nil
}

// upload sends the set-up requests in order.
func upload(client *http.Client, base string, reqs []request) error {
	for _, r := range reqs {
		if err := call(client, r.method, base+r.path, r.body, nil); err != nil {
			return err
		}
	}
	return nil
}

// lengths lists every corpus's length.
func lengths(client *http.Client, base string) (map[string]int, error) {
	var out struct {
		Corpora []service.Info `json:"corpora"`
	}
	if err := call(client, http.MethodGet, base+"/v1/corpora", nil, &out); err != nil {
		return nil, err
	}
	m := make(map[string]int, len(out.Corpora))
	for _, info := range out.Corpora {
		m[info.Name] = info.N
	}
	return m, nil
}

// fullMSS asks for a corpus's whole-corpus MSS on two workers.
func fullMSS(client *http.Client, base, corpus string) (service.QueryResult, error) {
	body, _ := json.Marshal(service.SingleRequest{Corpus: corpus, Query: service.Query{Kind: "mss"}, Workers: 2})
	var out struct {
		Result service.QueryResult `json:"result"`
	}
	err := call(client, http.MethodPost, base+"/v1/query", body, &out)
	return out.Result, err
}

// healthz fetches the daemon's kernel tier and CPU features.
func healthz(client *http.Client, base string) (kernel, cpu string, err error) {
	var h struct {
		Kernel string `json:"kernel"`
		CPU    string `json:"cpu"`
	}
	err = call(client, http.MethodGet, base+"/v1/healthz", nil, &h)
	return h.Kernel, h.CPU, err
}
