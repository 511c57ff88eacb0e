// Command estsim generates a synthetic EST benchmark with known correct
// clustering — the stand-in for the paper's Arabidopsis data set.
//
// Usage:
//
//	estsim -n 10000 [-genes 500] [-error 0.02] [-seed 1] \
//	       -out ests.fasta [-truth truth.tsv]
//
// The truth file has one "estNNNNNN<TAB>gene" line per EST and is the
// reference input for evalclust.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"pace"
	"pace/internal/simulate"
)

func main() {
	n := flag.Int("n", 1000, "number of ESTs")
	genes := flag.Int("genes", 0, "number of genes (0 = n/20)")
	errRate := flag.Float64("error", 0.02, "per-base sequencing error rate")
	mean := flag.Int("len", 550, "mean EST length")
	paralogs := flag.Int("paralogs", 0, "gene families with a diverged paralog")
	divergence := flag.Float64("divergence", 0.1, "paralog per-base divergence")
	polyA := flag.Int("polya", 0, "max poly(A) tail length appended to transcripts (0 = none)")
	altsplice := flag.Float64("altsplice", 0, "probability a gene has an exon-skipping isoform")
	seed := flag.Int64("seed", 1, "random seed")
	out := flag.String("out", "", "output FASTA file (required)")
	truth := flag.String("truth", "", "output truth TSV file")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "estsim: -out is required")
		flag.Usage()
		os.Exit(2)
	}

	// Fill the generator's config directly rather than through
	// pace.SimOptions, whose zero values mean "default": every flag value,
	// -error 0 included, is taken literally.
	cfg := simulate.DefaultConfig(*n)
	cfg.NumGenes = *genes
	cfg.ErrorRate = *errRate
	cfg.MeanESTLen = *mean
	cfg.ParalogFamilies = *paralogs
	cfg.ParalogDivergence = *divergence
	cfg.AltSpliceProb = *altsplice
	cfg.Seed = *seed
	if *polyA > 0 {
		cfg.PolyATail = [2]int{(*polyA + 1) / 2, *polyA}
	}
	b, err := simulate.Generate(cfg)
	if err != nil {
		fatal(err)
	}

	recs := make([]pace.Record, len(b.ESTs))
	for i, e := range b.ESTs {
		recs[i] = pace.Record{
			ID:   fmt.Sprintf("est%06d", i),
			Desc: fmt.Sprintf("gene=%d", b.Truth[i]),
			Seq:  e.String(),
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	if err := pace.WriteFASTA(f, recs); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}

	if *truth != "" {
		tf, err := os.Create(*truth)
		if err != nil {
			fatal(err)
		}
		w := bufio.NewWriter(tf)
		for i, g := range b.Truth {
			fmt.Fprintf(w, "est%06d\t%d\n", i, g)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
		if err := tf.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "estsim: wrote %d ESTs from %d genes to %s\n",
		len(b.ESTs), len(b.Genes), *out)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "estsim:", err)
	os.Exit(1)
}
