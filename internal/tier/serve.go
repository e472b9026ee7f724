package tier

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	// Registers /debug/pprof on http.DefaultServeMux, served only by
	// StartPprof's side listener; every tier's handler is its own mux,
	// so profiling never leaks onto the public address.
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// Flags is the flag group the serving binaries share. RegisterFlags
// mounts the four every tier has; RegisterAdmission adds the
// admission-gate knobs of the tiers that gate work (serve, segment).
type Flags struct {
	Addr      string
	Quiet     bool
	PprofAddr string
	SlowQuery time.Duration

	AdmissionLimit  int
	AdmissionQueue  int
	AdmissionTarget time.Duration
}

// RegisterFlags defines -addr, -quiet, -pprof-addr and -slow-query on
// fs. The listen default is the one thing that differs per binary.
func RegisterFlags(fs *flag.FlagSet, defaultAddr string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Addr, "addr", defaultAddr, "listen address")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress per-request and routing logs")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this side address (e.g. localhost:6060; empty disables)")
	fs.DurationVar(&f.SlowQuery, "slow-query", 0, "log the span tree of requests slower than this to stderr as JSON (0 disables)")
	return f
}

// RegisterAdmission defines -admission-limit, -admission-queue and
// -admission-target on fs (overload.AdmissionFromFlags resolves them).
func (f *Flags) RegisterAdmission(fs *flag.FlagSet) {
	fs.IntVar(&f.AdmissionLimit, "admission-limit", 0, "max concurrent searches before typed 429 sheds (0 = effectively unbounded gate, telemetry only)")
	fs.IntVar(&f.AdmissionQueue, "admission-queue", 0, "admission queue depth absorbing bursts before shedding (0 = half the limit)")
	fs.DurationVar(&f.AdmissionTarget, "admission-target", 0, "AIMD latency target: cut the admission limit when queue waits exceed this (0 disables adaptation)")
}

// Logger returns the request logger -quiet selects: text on stderr,
// or discard.
func (f *Flags) Logger() *slog.Logger {
	if f.Quiet {
		return slog.New(slog.DiscardHandler)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// StartPprof serves net/http/pprof's /debug/pprof endpoints on a
// dedicated side listener so live traffic can be profiled (see
// LOADTEST.md, "Profiling live traffic"). Empty addr disables it.
// Bind to localhost (or firewall the port): profiles expose internals.
func StartPprof(name, addr string) {
	if addr == "" {
		return
	}
	go func() {
		fmt.Printf("%s: pprof on http://%s/debug/pprof/\n", name, addr)
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "%s: pprof listener: %v\n", name, err)
		}
	}()
}

// Serve runs handler on addr until SIGINT/SIGTERM, then calls drain
// (nil for tiers with nothing to flush) and lets in-flight requests
// finish. It returns a listen or shutdown failure, nil on a clean
// signal-driven exit.
func Serve(name, addr string, handler http.Handler, drain func()) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Printf("%s: shutting down\n", name)
	if drain != nil {
		drain()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
