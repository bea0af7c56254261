package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"eend/internal/obs"
)

// clockTicks is Linux's USER_HZ, the unit of /proc/<pid>/stat CPU times.
const clockTicks = 100

// peakRSSMB is the process's peak resident set size (VmHWM).
func peakRSSMB(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no VmHWM", pid)
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name is parenthesized and may hold spaces; the numeric
	// fields start after its closing parenthesis, utime and stime being
	// the 12th and 13th of them.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%s/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%s/stat", pid)
	}
	return (ut + st) / clockTicks, nil
}

// selfCPUSeconds is this process's user+system CPU time so far, all
// threads included, at microsecond resolution.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stealSeconds is the CPU time the hypervisor has stolen from this
// machine's CPUs so far (the steal column of /proc/stat), or 0 where the
// kernel does not report it.
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return v / clockTicks
}

// promSamples maps each sample of a Prometheus text exposition,
// "name{labels}", to its value.
type promSamples map[string]float64

func parseProm(r io.Reader) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta is after−before for one sample (absent samples count as 0).
func (after promSamples) delta(before promSamples, key string) float64 {
	return after[key] - before[key]
}

// scrapeLocal snapshots this process's obs.Default() registry.
func scrapeLocal() promSamples {
	var b bytes.Buffer
	_ = obs.Default().WriteText(&b) // writes to a bytes.Buffer cannot fail
	return parseProm(&b)
}

// scrapeURL snapshots a worker's /metrics.
func scrapeURL(base string) (promSamples, error) {
	c := http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: %s", base, resp.Status)
	}
	return parseProm(resp.Body), nil
}

// machine describes where a result was measured; every run prints it on
// the line before its result.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision"`
}

func describeMachine() machine {
	return machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Revision:   revision(),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision is the git revision the binary was built from, with "+dirty"
// when the tree had uncommitted edits, or — built from a plain source
// tree, which carries none — "src:" and a SHA-256 over the tree's Go
// sources and go.mod files, so two results can still be told apart by the
// code they measured.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" && modified == "true" {
			return rev + "+dirty"
		}
		if rev != "" {
			return rev
		}
	}
	h := sha256.New()
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		n++
		return nil
	})
	if err != nil || n == 0 {
		return "unknown"
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}
