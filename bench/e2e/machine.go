package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// procUse is what the process has used so far. It is read around every
// slice and the differences are summed; the clients' own work, the probe
// included, is in it (bench/README.md, "Known limits").
type procUse struct {
	cpu                    time.Duration
	mallocs, bytes, pauses uint64
	gcs                    uint32
}

func readProcUse() procUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u := procUse{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauses: ms.PauseTotalNs, gcs: ms.NumGC}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return u
}

// addSince adds to u what the process used since the reading from, and
// returns the CPU time of that.
func (u *procUse) addSince(from procUse) time.Duration {
	now := readProcUse()
	u.cpu += now.cpu - from.cpu
	u.mallocs += now.mallocs - from.mallocs
	u.bytes += now.bytes - from.bytes
	u.pauses += now.pauses - from.pauses
	u.gcs += now.gcs - from.gcs
	return now.cpu - from.cpu
}

// machine is a reading of the first line of /proc/stat: the CPU time of
// every core together, in clock ticks, since boot.
type machine struct {
	total float64 // every column: busy, idle, waiting, stolen
	busy  float64 // running something in this machine
	steal float64 // taken by the hypervisor to run another machine
}

// userHZ is the unit of /proc/stat: USER_HZ, 100 on every Linux port Go runs on.
const userHZ = 100

// readMachine returns the zero machine where there is no /proc/stat; every
// slice then reads as calm.
func readMachine() machine {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return machine{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return machine{}
	}
	var m machine
	// user nice system idle iowait irq softirq steal [guest guest_nice]; the
	// guest columns are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(string(f), 64)
		m.total += v
		switch i {
		case 0, 1, 2, 5, 6:
			m.busy += v
		case 7:
			m.steal += v
		}
	}
	return m
}

// elsewhereSince is the share of the machine's CPU time since from that
// went elsewhere than to this process, which used self of it: what the
// hypervisor took away, plus what other processes ran.
func (m machine) elsewhereSince(from machine, self time.Duration) float64 {
	total := m.total - from.total
	if total <= 0 {
		return 0
	}
	others := (m.busy - from.busy) - self.Seconds()*userHZ
	return (m.steal - from.steal + max(others, 0)) / total
}
