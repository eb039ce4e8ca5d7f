package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Dataset export: measurement campaigns are expensive on real hardware (the
// paper sweeps 196 clocks x 5 repetitions per input), so the training set is
// written out for analysis outside the pipeline. The format is CSV with a
// two-line header carrying the schema and device metadata.

// WriteCSV serializes the dataset. Layout:
//
//	#dsenergy-dataset,<app>,<device>,<baselineMHz>
//	<feature names...>,freq_mhz,time_s,energy_j
//	<feature values...>,<freq>,<time>,<energy>
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	meta := []string{"#dsenergy-dataset", d.Schema.App, d.Device, strconv.Itoa(d.BaselineFreqMHz)}
	if err := cw.Write(meta); err != nil {
		return err
	}
	header := append(append([]string(nil), d.Schema.Features...), "freq_mhz", "time_s", "energy_j")
	if err := cw.Write(header); err != nil {
		return err
	}
	nf := len(d.Schema.Features)
	for i, s := range d.Samples {
		if len(s.Features) != nf {
			return fmt.Errorf("core: sample %d has %d features, schema wants %d", i, len(s.Features), nf)
		}
		row := make([]string, 0, nf+3)
		for _, f := range s.Features {
			row = append(row, strconv.FormatFloat(f, 'g', -1, 64))
		}
		row = append(row,
			strconv.Itoa(s.FreqMHz),
			strconv.FormatFloat(s.TimeS, 'g', -1, 64),
			strconv.FormatFloat(s.EnergyJ, 'g', -1, 64),
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
