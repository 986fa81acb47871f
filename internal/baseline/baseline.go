// Package baseline holds the literature numbers the paper's evaluation
// compares against: the Xeon 6234 CPU column, the GPU (over100x), FPGA
// (HEAX) and ASIC (F1+, CraterLake, BTS, ARK) prototypes, all closed
// systems the paper cites by their published results. This machine's
// single-thread software timings of the same operations are measured by
// bench/ (the ckks.*.us rows of its per-layer ledger), not here.
package baseline

// OpThroughput is a Table IV row fragment: operations per second for one
// FHE basic operation on one platform.
type OpThroughput struct {
	Platform string
	Op       string
	OpsPerS  float64
}

// TableIVReported reproduces the paper's Table IV throughput numbers
// (operations per second; slashes in the paper mean "not reported").
func TableIVReported() []OpThroughput {
	rows := []OpThroughput{
		{"CPU (Xeon 6234)", "PMult", 38.14},
		{"CPU (Xeon 6234)", "CMult", 0.38},
		{"CPU (Xeon 6234)", "NTT", 9.25},
		{"CPU (Xeon 6234)", "Keyswitch", 0.4},
		{"CPU (Xeon 6234)", "Rotation", 0.39},
		{"CPU (Xeon 6234)", "Rescale", 6.9},

		{"over100x (GPU)", "PMult", 7407},
		{"over100x (GPU)", "CMult", 57},
		{"over100x (GPU)", "Rotation", 61},
		{"over100x (GPU)", "Rescale", 1574},

		{"HEAX (FPGA)", "PMult", 4161},
		{"HEAX (FPGA)", "CMult", 119},

		{"Poseidon (FPGA)", "PMult", 13310},
		{"Poseidon (FPGA)", "CMult", 273},
		{"Poseidon (FPGA)", "NTT", 227},
		{"Poseidon (FPGA)", "Keyswitch", 312},
		{"Poseidon (FPGA)", "Rotation", 302},
		{"Poseidon (FPGA)", "Rescale", 3948},
	}
	return rows
}

// BenchmarkTime is a Table VI row fragment: benchmark wall time in
// milliseconds on one platform.
type BenchmarkTime struct {
	Platform  string
	Benchmark string
	Millis    float64
}

// TableVIReported reproduces the paper's full-system comparison
// (benchmark execution time, ms).
func TableVIReported() []BenchmarkTime {
	return []BenchmarkTime{
		{"Poseidon (FPGA)", "LR", 72.98},
		{"Poseidon (FPGA)", "LSTM", 1846.89},
		{"Poseidon (FPGA)", "ResNet-20", 2661.23},
		{"Poseidon (FPGA)", "PackedBootstrapping", 127.45},

		// Comparator prototypes. The paper's Table VI compares against the
		// numbers these systems' own papers report; the source text of our
		// copy garbles several cells, so values below are reconstructed
		// from the cited papers' headline results — treat them as
		// order-of-magnitude anchors (see EXPERIMENTS.md).
		{"F1+ (ASIC)", "LR", 639},
		{"CraterLake (ASIC)", "LR", 119.5},
		{"BTS (ASIC)", "LR", 28.4},
		{"ARK (ASIC)", "LR", 7.4},
		{"over100x (GPU)", "LR", 775},

		{"CraterLake (ASIC)", "LSTM", 248.4},
		{"BTS (ASIC)", "LSTM", 1153},
		{"ARK (ASIC)", "LSTM", 100},
		{"CraterLake (ASIC)", "ResNet-20", 321.8},
		{"BTS (ASIC)", "ResNet-20", 1910},
		{"ARK (ASIC)", "ResNet-20", 125},
		{"F1+ (ASIC)", "PackedBootstrapping", 1024},
		{"CraterLake (ASIC)", "PackedBootstrapping", 4.9},
		{"BTS (ASIC)", "PackedBootstrapping", 58.9},
		{"ARK (ASIC)", "PackedBootstrapping", 3.5},
	}
}
