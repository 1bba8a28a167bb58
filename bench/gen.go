package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"

	"iotrace"
	"iotrace/internal/apps"
	wl "iotrace/internal/workload"
)

// Inputs are generated from the workload seed with the paper's
// application models. The generator is called directly rather than
// through iotrace.App, whose process-wide memo would make every set-up
// after the first free and keep every generated trace alive.

// seedStride separates the generator seeds of different workload seeds
// far beyond any instance count, so instance i of seed s never reuses
// instance j of seed s+1.
const seedStride = 1 << 32

// genSeed is the generator seed of one application instance. Workload
// seed 1 gives the applications' default seeds, the inputs of the
// repository's own paper reproductions (iotrace.App with no Seed).
func genSeed(app string, seed uint64, instance int) uint64 {
	return apps.DefaultSeed(app) + (seed-1)*seedStride + uint64(instance)
}

// genRecords generates one instance of an application as process pid.
func genRecords(app string, seed uint64, instance int, pid uint32) ([]*iotrace.Record, error) {
	spec, err := apps.Lookup(app)
	if err != nil {
		return nil, err
	}
	return wl.Generate(spec.Build(genSeed(app, seed, instance), pid))
}

// csvSpec is the column mapping of the CSV traces writeTrace emits.
const csvSpec = "time=time,op=op,file=file,bytes=bytes,offset=offset,unit=ticks"

// traceFormat is one upload encoding: a native format, or CSV.
type traceFormat struct {
	name   string // the iosimd format name
	native iotrace.Format
	csv    bool
}

var (
	fmtASCII  = traceFormat{name: "ascii", native: iotrace.FormatASCII}
	fmtBinary = traceFormat{name: "binary", native: iotrace.FormatBinary}
	fmtCSV    = traceFormat{name: "csv", native: iotrace.FormatCSV, csv: true}
)

// opts returns the import options that decode the format.
func (f traceFormat) opts() []iotrace.SourceOption {
	opts := []iotrace.SourceOption{iotrace.WithFormat(f.native)}
	if f.csv {
		m, err := iotrace.ParseCSVMapping(csvSpec)
		if err != nil {
			panic(err) // csvSpec is a constant the tests parse
		}
		opts = append(opts, iotrace.WithCSVMapping(m))
	}
	return opts
}

// writeTrace encodes recs to path and returns the file size.
func writeTrace(path string, recs []*iotrace.Record, f traceFormat) (int64, error) {
	file, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer file.Close()
	bw := bufio.NewWriterSize(file, 256<<10)
	if f.csv {
		err = writeCSV(bw, recs)
	} else {
		tw := iotrace.NewTraceWriter(bw, f.native)
		for _, r := range recs {
			if err = tw.WriteRecord(r); err != nil {
				break
			}
		}
		if err == nil {
			err = tw.Flush()
		}
	}
	if err == nil {
		err = bw.Flush()
	}
	if err != nil {
		return 0, fmt.Errorf("write %s: %w", path, err)
	}
	st, err := file.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), file.Close()
}

// writeCSV emits the logical data records of recs as a site-log table
// (one row per request, timestamps in ticks of the process clock, which
// is nondecreasing as the importer requires).
func writeCSV(w io.Writer, recs []*iotrace.Record) error {
	if _, err := io.WriteString(w, "time,op,file,bytes,offset\n"); err != nil {
		return err
	}
	var line []byte
	for _, r := range recs {
		if r.IsComment() || !r.Type.IsLogical() {
			continue
		}
		op := "read"
		if r.Type.IsWrite() {
			op = "write"
		}
		line = strconv.AppendInt(line[:0], int64(r.ProcessTime), 10)
		line = append(line, ',')
		line = append(line, op...)
		line = append(line, ",f"...)
		line = strconv.AppendUint(line, uint64(r.FileID), 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.Length, 10)
		line = append(line, ',')
		line = strconv.AppendInt(line, r.Offset, 10)
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
