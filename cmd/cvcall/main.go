// Command cvcall is the thin client for a running cvserve: it reads
// files locally, talks JSON to the service, and renders reports exactly
// like cvcheck does — same text renderer, same wire JSON, same exit
// codes — so swapping the CLI for the service changes where validation
// runs, not what anything downstream sees.
//
// Usage:
//
//	cvcall [-server http://127.0.0.1:7077] [-tenant NAME] [-json] [-strict]
//	       [-timeout 30s] [-retries N] [-version] <command> [args]
//
// Commands:
//
//	register <spec> <file.cpl>                  upload a CPL program (-strict refuses
//	                                            error-severity lint findings)
//	list                                        list registered specs
//	delete <spec>                               remove a spec
//	validate <spec> [format:path[:scope]]...    validate local files
//	report <spec>                               fetch the last report
//	health                                      server liveness + version
//	ready                                       server readiness (exit 0 ready,
//	                                            1 recovering/draining)
//	stats                                       server counters
//
// -retries N retries transient failures (connection errors while the
// server restarts, 429 admission overflow, 503 recovering/draining) up
// to N extra times with capped jittered exponential backoff, honoring
// the server's Retry-After header when present. Every cvcall operation
// is safe to retry; the default is 0 (fail fast).
//
// validate reads each format:path[:scope] argument locally (the same
// syntax as cvcheck -data) and ships the bytes as request payloads, so
// the server never needs access to the client's filesystem. A single
// file is sent as the raw request body (Content-Type
// application/octet-stream, its name, format and scope in the query),
// with no JSON envelope to escape and decode; several files go as one
// JSON request.
//
// Exit status mirrors cvcheck:
//
//	0  validation ran and found no violations
//	1  validation ran and found violations (or spec errors)
//	2  usage, transport, specification or compilation error
//	3  every configuration source failed to load — nothing was validated
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"confvalley"
	"confvalley/internal/runner"
	"confvalley/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvcall", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		server  = fs.String("server", "http://127.0.0.1:7077", "cvserve base URL")
		tenant  = fs.String("tenant", "default", "tenant name scoping every spec operation")
		asJSON  = fs.Bool("json", false, "emit raw JSON responses instead of rendered text")
		strict  = fs.Bool("strict", false, "with register: refuse the spec if lint finds error-severity diagnostics")
		timeout = fs.Duration("timeout", 30*time.Second, "bound each request; 0 = no bound")
		retries = fs.Int("retries", 0, "retry transient failures (connection errors, 429, 503) up to N extra times")
		version = fs.Bool("version", false, "print the ConfValley version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintf(stdout, "cvcall version %s (report schema v%d)\n", confvalley.Version, confvalley.ReportSchemaVersion)
		return 0
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "cvcall: a command is required (register, list, delete, validate, report, health, ready, stats)")
		fs.Usage()
		return 2
	}

	ctx := context.Background()
	clientTimeout := time.Duration(-1) // flag 0 = explicitly unbounded
	if *timeout > 0 {
		clientTimeout = *timeout
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	c := &serve.Client{Base: *server, Tenant: *tenant, Timeout: clientTimeout, Retries: *retries}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	fail := func(err error) int {
		fmt.Fprintf(stderr, "cvcall: %s: %v\n", cmd, err)
		return 2
	}
	emit := func(v any) int {
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
		return 0
	}

	switch cmd {
	case "register":
		if len(rest) != 2 {
			fmt.Fprintln(stderr, "cvcall: usage: register <spec> <file.cpl>")
			return 2
		}
		src, err := os.ReadFile(rest[1])
		if err != nil {
			return fail(err)
		}
		info, err := c.RegisterWith(ctx, rest[0], string(src), serve.RegisterOptions{Strict: *strict})
		if err != nil {
			var lre *serve.LintRejectedError
			if errors.As(err, &lre) {
				for _, d := range lre.Diagnostics {
					fmt.Fprintln(stderr, d)
				}
			}
			return fail(err)
		}
		// Advisory lint findings render like cvlint's, on stderr.
		for _, d := range info.Lint {
			fmt.Fprintln(stderr, d)
		}
		if *asJSON {
			return emit(info)
		}
		fmt.Fprintf(stdout, "cvcall: registered %s (%d specification(s), %d bytes)\n", info.Name, info.Specs, info.Bytes)
		return 0

	case "list":
		if len(rest) != 0 {
			fmt.Fprintln(stderr, "cvcall: usage: list")
			return 2
		}
		infos, err := c.ListSpecs(ctx)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			return emit(infos)
		}
		for _, info := range infos {
			state := "never validated"
			if info.HasReport {
				state = "has report"
			}
			fmt.Fprintf(stdout, "%s\t%d specification(s)\t%d bytes\t%s\n", info.Name, info.Specs, info.Bytes, state)
		}
		return 0

	case "delete":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "cvcall: usage: delete <spec>")
			return 2
		}
		if err := c.Delete(ctx, rest[0]); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "cvcall: deleted %s\n", rest[0])
		return 0

	case "validate":
		if len(rest) < 1 {
			fmt.Fprintln(stderr, "cvcall: usage: validate <spec> [format:path[:scope]]...")
			return 2
		}
		req := serve.ValidateRequest{}
		for _, arg := range rest[1:] {
			src, err := runner.ParseSourceArg(arg)
			if err != nil {
				fmt.Fprintf(stderr, "cvcall: %v\n", err)
				return 2
			}
			data, err := os.ReadFile(src.Name)
			if err != nil {
				return fail(err)
			}
			req.Payloads = append(req.Payloads, serve.PayloadRef{
				Name: src.Name, Format: src.Format, Scope: src.Scope, Data: string(data),
			})
		}
		resp, err := c.Validate(ctx, rest[0], req)
		if err != nil {
			return fail(err)
		}
		return renderResponse(resp, *asJSON, stdout, stderr, fail)

	case "report":
		if len(rest) != 1 {
			fmt.Fprintln(stderr, "cvcall: usage: report <spec>")
			return 2
		}
		resp, err := c.LastReport(ctx, rest[0])
		if err != nil {
			return fail(err)
		}
		return renderResponse(resp, *asJSON, stdout, stderr, fail)

	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return fail(err)
		}
		if *asJSON {
			return emit(h)
		}
		fmt.Fprintf(stdout, "cvcall: %s — version %s, schema v%d, up %ds, %d tenant(s), %d in flight, %d queued\n",
			h.Status, h.Version, h.SchemaVersion, h.UptimeSeconds, h.Tenants, h.InFlight, h.Queued)
		return 0

	case "ready":
		info, err := c.Ready(ctx)
		if err != nil && !errors.Is(err, serve.ErrNotReady) {
			return fail(err)
		}
		if *asJSON {
			emit(info)
		} else {
			fmt.Fprintf(stdout, "cvcall: %s\n", info.State)
		}
		if !info.Ready {
			return 1
		}
		return 0

	case "stats":
		st, err := c.Stats(ctx)
		if err != nil {
			return fail(err)
		}
		return emit(st)

	default:
		fmt.Fprintf(stderr, "cvcall: unknown command %q\n", cmd)
		fs.Usage()
		return 2
	}
}

// renderResponse prints a validate/report response the way cvcheck
// prints a local run — wire JSON with -json (byte-identical to cvcheck
// -json for the same inputs), rendered text otherwise, load accounting
// on stderr — and returns the exit-code contract value the server
// computed.
func renderResponse(resp *serve.ValidateResponse, asJSON bool, stdout, stderr io.Writer, fail func(error) int) int {
	if resp.Load != nil {
		resp.Load.Render(stderr)
	}
	if resp.SpecLoads != nil {
		resp.SpecLoads.Render(stderr)
	}
	if asJSON {
		b, err := json.MarshalIndent(resp.Report, "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, string(b))
	} else if err := resp.Report.Report().Render(stdout); err != nil {
		return fail(err)
	}
	if resp.AllSourcesFailed {
		fmt.Fprintln(stderr, "cvcall: every configuration source failed to load; nothing was validated")
	}
	return resp.Code
}
