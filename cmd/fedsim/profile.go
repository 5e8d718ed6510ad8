package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// startProfiles begins a CPU profile into cpuPath and returns the function
// that ends it and then writes a heap profile to memPath. Either path may
// be empty; with both empty nothing is started and stop does nothing.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var cpuErr, memErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				cpuErr = fmt.Errorf("-cpuprofile: %w", err)
			}
		}
		if memPath != "" {
			if err := writeHeapProfile(memPath); err != nil {
				memErr = fmt.Errorf("-memprofile: %w", err)
			}
		}
		return errors.Join(cpuErr, memErr)
	}, nil
}

// writeHeapProfile writes the heap profile as of the last completed
// collection, after forcing one so it is current.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
