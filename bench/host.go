package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// hostInfo fingerprints the machine a run was made on, so that records
// from different hosts are never compared silently.
type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	AVX2FMA    bool   `json:"avx2_fma"`
	PureGo     string `json:"evfed_pure_go"`
	// FMAActive reports whether internal/mat runs its AVX2+FMA kernels:
	// the CPU has them and EVFED_PURE_GO does not switch them off.
	FMAActive bool   `json:"fma_active"`
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Seconds   int    `json:"seconds"`
	Trace     bool   `json:"trace"`
}

func printHost(o options) {
	h := hostInfo{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		PureGo:     os.Getenv("EVFED_PURE_GO"),
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    int(o.seconds.Seconds()),
		Trace:      o.trace,
	}
	h.CPU, h.AVX2FMA = cpuModel()
	h.FMAActive = runtime.GOARCH == "amd64" && h.AVX2FMA && h.PureGo == ""
	b, _ := json.Marshal(h) // a struct of plain fields always encodes
	fmt.Printf("host: %s\n", b)
}

// cpuModel reads the CPU model name and the avx2/fma flags from
// /proc/cpuinfo; elsewhere it reports "unknown".
func cpuModel() (model string, avx2fma bool) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, false
	}
	defer f.Close()
	var avx2, fma, gotModel, gotFlags bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() && !(gotModel && gotFlags) {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			model, gotModel = strings.TrimSpace(val), true
		case "flags":
			for _, fl := range strings.Fields(val) {
				avx2 = avx2 || fl == "avx2"
				fma = fma || fl == "fma"
			}
			gotFlags = true
		}
	}
	return model, avx2 && fma
}
