package main

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"armus/benchmark/stats"
)

// The floor of a service workload is the round trip of one small frame to
// a peer that does nothing but send it back, over the same kind of socket
// and with the same number of connections as the workload. No change to the
// repository can make a gate or a round faster than this, so reporting a
// latency as a multiple of the floor measured in the same run takes the
// machine, and most of its momentary load, out of the number.

// echoFrame is the size of a ping: about one gated block event.
const echoFrame = 48

// echoMain is the body of the echo peer subprocess (-echo network addr).
func echoMain(network, addr string) error {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	go func() {
		<-sig
		os.Exit(0) // a unix socket file goes with the run directory
	}()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			defer c.Close()
			buf := make([]byte, echoFrame)
			for {
				if _, err := io.ReadFull(c, buf); err != nil {
					return
				}
				if _, err := c.Write(buf); err != nil {
					return
				}
			}
		}()
	}
}

// echoPeer is the benchmark's side of the floor measurement.
type echoPeer struct {
	p     *proc
	conns []net.Conn
}

// startEcho launches the peer in dir and opens n connections to it.
func startEcho(e env, dir, network, addr string, n int) (*echoPeer, error) {
	p, err := startProc(dir, e.self, "-echo", network, addr)
	if err != nil {
		return nil, err
	}
	ep := &echoPeer{p: p}
	dial := func() (net.Conn, error) {
		if network == "unix" {
			return net.Dial(network, filepath.Join(dir, addr))
		}
		return net.Dial(network, addr)
	}
	for i := 0; i < n; i++ {
		var c net.Conn
		if err := p.waitFor(func() (err error) { c, err = dial(); return err }); err != nil {
			ep.stop()
			return nil, err
		}
		ep.conns = append(ep.conns, c)
	}
	return ep, nil
}

// measure plays ping-pong on every connection at once for d and returns
// the median round trip in nanoseconds.
func (ep *echoPeer) measure(d time.Duration) (float64, error) {
	hists := make([]stats.Hist, len(ep.conns))
	errs := make([]error, len(ep.conns))
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range ep.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, echoFrame)
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				if _, err := c.Write(buf); err != nil {
					errs[i] = err
					return
				}
				if _, err := io.ReadFull(c, buf); err != nil {
					errs[i] = err
					return
				}
				hists[i].Observe(int64(time.Since(t0)))
			}
		}()
	}
	wg.Wait()
	var all stats.Hist
	for i := range hists {
		if errs[i] != nil {
			return 0, fmt.Errorf("echo floor: %w", errs[i])
		}
		all.Merge(&hists[i])
	}
	if all.Count() == 0 {
		return 0, fmt.Errorf("echo floor: no round trip completed in %v", d)
	}
	return float64(all.Median()), nil
}

func (ep *echoPeer) stop() error {
	if ep == nil {
		return nil
	}
	for _, c := range ep.conns {
		c.Close()
	}
	return ep.p.stop()
}
