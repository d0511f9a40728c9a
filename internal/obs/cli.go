package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Outputs is the observability front door every CLI shares. Its fields
// carry the values of the CLI's -journal, -trace, -metrics and -serve
// flags ("" = off; a CLI without one of the flags leaves it empty).
// Start arms and activates the session those outputs need; Close
// writes them. The CLIs route every exit after Start through Close, so
// a failing run still leaves a valid journal, trace and metrics dump.
type Outputs struct {
	Journal string // stream the causal journal to this JSONL file
	Trace   string // write the Chrome trace derived from the journal here
	Metrics string // dump the registry here as JSON ("-" = text to stderr)
	Serve   string // serve the observability endpoints on this address

	stderr io.Writer // nil = os.Stderr
	sess   *Session  // the started session; nil before Start and after Close
	srv    *Server
}

// Start checks every output path before any work runs, then arms sess
// and makes it the active session. A path that cannot be written is an
// error naming its flag, which the CLIs report as a usage error.
//
// Start arms the journal (streamed to the -journal file, or kept in
// memory when only -trace needs it), the Default registry for -metrics
// and -serve, and progress tracking for -serve; collectors sess already
// carries are kept. With -serve it starts the server and prints one
// "# serving observability on http://ADDR" line to stderr.
func (o *Outputs) Start(sess *Session) error {
	if o.stderr == nil {
		o.stderr = os.Stderr
	}
	if err := probe("trace", o.Trace); err != nil {
		return err
	}
	if o.Metrics != "-" {
		if err := probe("metrics", o.Metrics); err != nil {
			return err
		}
	}
	if o.Journal != "" {
		j, err := OpenJournal(o.Journal)
		if err != nil {
			return fmt.Errorf("invalid -journal: %v", err)
		}
		sess.Journal = j
	} else if o.Trace != "" && sess.Journal == nil {
		sess.Journal = NewJournal()
	}
	if (o.Metrics != "" || o.Serve != "") && sess.Metrics == nil {
		sess.Metrics = Default()
	}
	if o.Serve != "" {
		if sess.Progress == nil {
			sess.Progress = &Progress{}
		}
		srv, err := StartServer(o.Serve, sess)
		if err != nil {
			sess.Journal.Close()
			return fmt.Errorf("-serve %s: %v", o.Serve, err)
		}
		o.srv = srv
	}
	o.sess = Start(sess)
	if o.srv != nil {
		fmt.Fprintf(o.stderr, "# serving observability on http://%s (/healthz /metricz /debug/vars /debug/pprof/ /hotsites /progress /api/journal /api/spans /api/coverage /api/attribution /api/histo)\n", o.srv.Addr())
	}
	return nil
}

// Close stops the server and the session, then writes the trace,
// closes the journal and dumps the metrics. Every output is attempted
// and the failures are joined into the returned error. Close before
// Start, or a second Close, does nothing.
func (o *Outputs) Close() error {
	sess := o.sess
	if sess == nil {
		return nil
	}
	o.sess = nil
	var errs []error
	if o.srv != nil {
		if err := o.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-serve: %w", err))
		}
	}
	Stop()
	if o.Trace != "" {
		if err := writeFile(o.Trace, sess.Journal.WriteTrace); err != nil {
			errs = append(errs, fmt.Errorf("-trace: %w", err))
		} else {
			fmt.Fprintf(o.stderr, "# trace: %d journal events -> %s\n", sess.Journal.Len(), o.Trace)
		}
	}
	if err := sess.Journal.Close(); err != nil {
		errs = append(errs, fmt.Errorf("-journal: %w", err))
	} else if o.Journal != "" {
		fmt.Fprintf(o.stderr, "# journal: %d events -> %s\n", sess.Journal.Len(), o.Journal)
	}
	switch o.Metrics {
	case "":
	case "-":
		sess.Metrics.WriteText(o.stderr)
	default:
		if err := writeFile(o.Metrics, sess.Metrics.WriteJSON); err != nil {
			errs = append(errs, fmt.Errorf("-metrics: %w", err))
		}
	}
	return errors.Join(errs...)
}

// probe checks that the -flag output path can be created or appended
// to, without truncating what is already there.
func probe(flag, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		err = f.Close()
	}
	if err != nil {
		return fmt.Errorf("unwritable -%s path: %v", flag, err)
	}
	return nil
}

// writeFile creates path and fills it with write. The close error
// counts: a dump that never reached the file is a failed dump.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
