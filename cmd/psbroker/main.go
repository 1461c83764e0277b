// Command psbroker runs a single live greenps broker over TCP.
//
// Usage:
//
//	psbroker -id B001 -listen 127.0.0.1:7001 -bw 300000 \
//	         -delay 0.0001,0.001 -neighbors 127.0.0.1:7002,127.0.0.1:7003
//
// The broker serves until interrupted. Neighbors are dialed once at
// startup; additional neighbors may connect inbound at any time.
//
// With -metrics-addr, the broker serves Prometheus text exposition at
// /metrics: per-broker message and byte rates, the matched-vs-forwarded
// publication split, queue depth, limiter waits, and the transport's
// frame/byte/latency metrics, every series labeled with the broker ID.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/greenps/greenps/internal/broker"
	"github.com/greenps/greenps/internal/message"
	"github.com/greenps/greenps/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "psbroker:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id        = flag.String("id", "", "broker ID (required)")
		listen    = flag.String("listen", "127.0.0.1:0", "TCP listen address")
		bw        = flag.Float64("bw", 0, "output bandwidth throttle, bytes/s (0 = unthrottled)")
		delayStr  = flag.String("delay", "0.0001,0.001", "matching delay model perSub,base in seconds, both non-negative")
		neighbors = flag.String("neighbors", "", "comma-separated neighbor addresses to dial; list each link on one of its two brokers only")
		capacity  = flag.Int("profile-bits", 1280, "CBC bit-vector capacity; the planner reads it from this broker's BIA")
		quiet     = flag.Bool("q", false, "suppress runtime diagnostics")
		metrics   = flag.String("metrics-addr", "", "serve Prometheus metrics on this address at /metrics (empty = disabled)")
		wtimeout  = flag.Duration("write-timeout", 0, "per-frame write deadline to peers (0 = none)")
	)
	flag.Parse()
	if *id == "" {
		return fmt.Errorf("-id is required")
	}
	delay, err := parseDelay(*delayStr)
	if err != nil {
		return err
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "psbroker ", log.LstdFlags)
	}
	var reg *telemetry.Registry
	if *metrics != "" {
		reg = telemetry.New(map[string]string{"broker": *id})
	}
	node, err := broker.StartNode(broker.NodeConfig{
		ID:              *id,
		ListenAddr:      *listen,
		Delay:           delay,
		OutputBandwidth: *bw,
		ProfileCapacity: *capacity,
		Logger:          logger,
		Telemetry:       reg,
		WriteTimeout:    *wtimeout,
	})
	if err != nil {
		return err
	}
	fmt.Printf("broker %s listening on %s\n", node.ID(), node.Addr())
	if reg != nil {
		ln, err := net.Listen("tcp", *metrics)
		if err != nil {
			node.Stop()
			return fmt.Errorf("metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "psbroker: metrics server:", err)
			}
		}()
		defer func() { _ = srv.Close() }()
		fmt.Printf("broker %s metrics on http://%s/metrics\n", node.ID(), ln.Addr())
	}
	for _, addr := range strings.Split(*neighbors, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		if err := node.ConnectNeighbor(addr); err != nil {
			node.Stop()
			return fmt.Errorf("connect neighbor %s: %w", addr, err)
		}
		fmt.Printf("broker %s linked to %s\n", node.ID(), addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	node.Stop()
	return nil
}

func parseDelay(s string) (message.MatchingDelayFn, error) {
	parts := strings.SplitN(s, ",", 2)
	if len(parts) != 2 {
		return message.MatchingDelayFn{}, fmt.Errorf("-delay needs perSub,base")
	}
	perSub, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	if err != nil {
		return message.MatchingDelayFn{}, fmt.Errorf("-delay perSub: %w", err)
	}
	base, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		return message.MatchingDelayFn{}, fmt.Errorf("-delay base: %w", err)
	}
	return message.MatchingDelayFn{PerSub: perSub, Base: base}, nil
}
