// Command flowworker hosts remote shuffle partitions for the dataflow
// engine: it serves the transport wire protocol (internal/transport) on a
// TCP listener, relaying framed record batches between the shuffle senders
// and collectors of coordinator processes and answering their control
// pings and calibration rounds. Each ping's reply carries the worker's
// lifetime relay totals (data frames and bytes), so coordinators collect
// per-worker traffic stats with the same round trip that checks health.
//
//	flowworker -listen 127.0.0.1:0
//
// The first stdout line is the resolved listen address (meaningful with a
// ":0" ephemeral port) — the contract coordinators and test harnesses use
// to discover where the worker landed. Everything else goes to stderr as
// structured log/slog output.
//
// A worker holds no job state beyond its live connections: every shuffle
// session and its buffers are scoped to one coordinator connection, so a
// job's teardown is exactly its connections closing, and a worker serves
// any number of concurrent jobs without cross-talk. On SIGINT/SIGTERM the
// listener closes, in-flight relays finish their streams, and the process
// exits.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"

	"blackboxflow/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is flowworker on the given arguments: it returns the exit status — 0
// after a signal stops it, 1 when it cannot listen or serve, 2 when an
// argument is not a flag: the flag package stops at the first one, so a
// flag after it would be dropped silently.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flowworker", flag.ExitOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "listen address (\":0\" picks an ephemeral port, printed on stdout)")
	fs.Parse(args) // a bad flag exits 2, -h exits 0
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "flowworker: unexpected argument %q; every option is a flag\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, nil)))

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		slog.Error("listen failed", "addr", *listen, "err", err)
		return 1
	}
	w := transport.NewWorker(ln)

	// The resolved address is the only stdout output: parseable by whatever
	// launched us.
	fmt.Fprintln(stdout, w.Addr())
	slog.Info("serving shuffle transport", "addr", w.Addr())

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		slog.Info("shutting down", "signal", sig.String())
		w.Close()
	}()

	if err := w.Serve(); err != nil && !errors.Is(err, net.ErrClosed) {
		slog.Error("serve failed", "err", err)
		return 1
	}
	frames, bytes := w.RelayStats()
	slog.Info("bye", "relay_frames", frames, "relay_bytes", bytes)
	return 0
}
