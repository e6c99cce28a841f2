package main

import (
	"runtime"
	"sort"
	"time"

	"remac/internal/integrity"
	"remac/internal/matrix"
)

// kernelPass times the matrix and integrity kernels on the workload's own
// matrices (traced runs only): its inputs, and the outputs its reference
// solves produced. It picks the largest tall dense input X, the sparse
// input S with the most nonzeros, and the largest dense output D whose
// rows or columns match S's columns (transposed to put them in its rows),
// such as the H that DFP and BFGS compute on S's dataset. FLOP and bytes
// are computed, not measured: FLOP from the operand shapes and nonzero
// counts, bytes as the stored size of every operand read plus the result
// written, in the format the kernel runs on.
func kernelPass(rep *report, inputs, outputs []*matrix.Matrix) {
	var x, s, d *matrix.Matrix
	for _, m := range inputs {
		switch {
		case m.Format() == matrix.Dense && m.Rows() > m.Cols() && m.Cols() > 1 &&
			(x == nil || m.Rows()*m.Cols() > x.Rows()*x.Cols()):
			x = m
		case m.Format() == matrix.CSR && (s == nil || m.NNZ() > s.NNZ()):
			s = m
		}
	}
	for _, m := range outputs {
		if s == nil || m.Format() != matrix.Dense || (d != nil && m.Rows()*m.Cols() <= d.Rows()*d.Cols()) {
			continue
		}
		switch s.Cols() {
		case m.Rows():
			d = m
		case m.Cols():
			d = m.Transpose()
		}
	}
	if x == nil || s == nil || d == nil {
		rep.mismatch("kernel pass: the workload lacks a tall dense input, a sparse input or a dense output matching it")
		return
	}
	rep.note("kernel pass: X dense %dx%d, S csr %dx%d nnz %d, D dense %dx%d",
		x.Rows(), x.Cols(), s.Rows(), s.Cols(), s.NNZ(), d.Rows(), d.Cols())

	g := x.Transpose().Mul(x) // k×k Gram matrix, the right operand of the dense GEMM
	m, k := x.Rows(), x.Cols()
	sDense := s.ToDense() // S's cells stored dense: the input of a compaction to CSR
	tsmmFLOP := 0.0
	for _, c := range s.RowNNZCounts() {
		tsmmFLOP += 2 * float64(c) * float64(c)
	}
	size := func(ms ...*matrix.Matrix) float64 {
		t := 0.0
		for _, mm := range ms {
			t += storedBytes(mm)
		}
		return t
	}
	var allocBytes, calls uint64
	kernel := func(name string, flop, bytes float64, f func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		per, n := timeCalls(f)
		runtime.ReadMemStats(&after)
		allocBytes += after.TotalAlloc - before.TotalAlloc
		calls += uint64(n)
		rep.set("matrix."+name+"_ms", "ms", per)
		if flop > 0 {
			rep.set("matrix."+name+"_flop", "count", flop)
		}
		rep.set("matrix."+name+"_bytes_computed", "bytes", bytes)
	}
	kernel("gemm_dense", 2*float64(m)*float64(k)*float64(k), size(x, g, x.Mul(g)), func() { x.Mul(g) })
	kernel("spmm_csr", 2*float64(s.NNZ())*float64(d.Cols()), size(s, d, s.Mul(d)), func() { s.Mul(d) })
	kernel("tsmm", tsmmFLOP, 3*size(s)+size(s.Transpose().Mul(s)), func() { s.Transpose().Mul(s) })
	// Add, ElemMul and Scale each read their operands and write a result.
	kernel("ewise", 3*float64(d.Rows()*d.Cols()), 8*size(d), func() { d.Add(d).ElemMul(d).Scale(0.5) })
	kernel("compact", 0, size(sDense, sDense.Compact()), func() { sDense.Compact() })
	kernel("nnz", 0, size(d), func() { d.NNZ() })
	rep.set("matrix.alloc_bytes_per_call", "bytes", float64(allocBytes)/float64(calls))

	per, _ := timeCalls(func() { integrity.Digest(d) })
	rep.set("integrity.digest_ms", "ms", per)
	rep.set("integrity.digest_bytes_computed", "bytes", size(d))
}

// storedBytes is the in-memory size of m's cells in its storage format: a
// float64 per dense cell; a float64 value and an int column index per CSR
// nonzero plus an int row pointer per row.
func storedBytes(m *matrix.Matrix) float64 {
	if m.Format() == matrix.Dense {
		return 8 * float64(m.Rows()) * float64(m.Cols())
	}
	return 16*float64(m.NNZ()) + 8*float64(m.Rows()+1)
}

// timeCalls calls f at least 5 times and for at least 100 ms, and returns
// the median ms per call and the number of calls.
func timeCalls(f func()) (float64, int) {
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < 100*time.Millisecond {
		t := time.Now()
		f()
		per = append(per, ms(time.Since(t)))
	}
	sort.Float64s(per)
	return per[len(per)/2], len(per)
}
