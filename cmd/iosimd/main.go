// Command iosimd serves the paper's simulator as a long-running
// capacity-planning service: upload traces once (content-addressed),
// then query single simulations or whole configuration sweeps over
// HTTP. Identical cells — same trace bytes, same effective config —
// are simulated once ever: repeats come from the result cache
// byte-identical, and concurrent duplicates coalesce onto one run.
//
// Usage:
//
//	iosimd -addr :8080 -data /var/lib/iosimd
//	iosimd -addr 127.0.0.1:0 -workers 4            # ephemeral port, printed on stdout
//	iosimd -format csv -csvmap azure               # default import knobs for uploads
//
// See docs/api.md for the endpoint reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"iotrace"
	"iotrace/internal/cliflags"
)

// Connection limits for the HTTP server. A sweep response can take
// minutes to compute, so there is no read or write timeout on the body;
// these only bound a client that never finishes its headers or leaves
// an idle keep-alive connection open.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "iosimd:", err)
		os.Exit(1)
	}
}

// run serves until SIGINT or SIGTERM, then stops accepting connections,
// lets in-flight requests finish and closes the server, which removes a
// temporary data directory. It returns nil after a signalled shutdown.
func run() error {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks one)")
		data    = flag.String("data", "", "data directory for traces and cached results (default: a temp dir)")
		workers = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		entries = flag.Int("mementries", 0, "in-memory result-cache entries (0 = default)")
	)
	im := cliflags.AddImport(flag.CommandLine)
	flag.Parse()

	// Validate the default import knobs up front, not on first upload.
	if _, err := im.Options(); err != nil {
		return err
	}
	formatName := *im.Format
	if formatName == "auto" {
		formatName = "" // per-upload auto-detection
	}
	srv, err := iotrace.NewServer(iotrace.ServerConfig{
		DataDir:       *data,
		Workers:       *workers,
		CacheEntries:  *entries,
		DefaultFormat: formatName,
		DefaultCSVMap: *im.CSVMap,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	fmt.Printf("iosimd: listening on http://%s\n", ln.Addr())
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process without waiting
	if err := hs.Shutdown(context.Background()); err != nil {
		return err
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
