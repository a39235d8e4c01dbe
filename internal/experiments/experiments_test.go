package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"melissa"
	"melissa/internal/buffer"
	"melissa/internal/testwait"
)

func TestScalePresets(t *testing.T) {
	for _, name := range []string{"tiny", "default", "large"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != name {
			t.Fatalf("name %q", s.Name)
		}
		if shape := s.Problem.FieldShape(s.Config); !slices.Equal(shape, []int{s.GridN, s.GridN}) {
			t.Fatalf("%s: field shape %v", name, shape)
		}
		if s.Threshold >= s.Capacity {
			t.Fatalf("%s: threshold %d ≥ capacity %d", name, s.Threshold, s.Capacity)
		}
		// §4.5: halve every 10,000 samples of the paper's 25,000-sample
		// ensemble, scaled to the preset's small ensemble.
		if want := 10000 * s.SimsSmall * s.StepsPerSim / 25000; s.HalveEvery != want {
			t.Fatalf("%s: HalveEvery %d, want %d", name, s.HalveEvery, want)
		}
		if s.LearningRate != 1e-3 || s.MinLR != 2.5e-4 {
			t.Fatalf("%s: schedule %g → %g, want 1e-3 → 2.5e-4", name, s.LearningRate, s.MinLR)
		}
		if s.SimsLarge <= s.SimsSmall {
			t.Fatalf("%s: large ensemble not larger", name)
		}
	}
	if _, err := ScaleByName("bogus"); err == nil {
		t.Fatal("expected error")
	}
	if s, _ := ScaleByName(""); s.Name != "default" {
		t.Fatal("empty name should default")
	}
}

func TestGenerateEnsemble(t *testing.T) {
	scale := Tiny()
	e, err := GenerateEnsemble(scale, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Sims() != 4 {
		t.Fatalf("sims %d", e.Sims())
	}
	s := e.Sample(2, 5)
	if s.SimID != 2 || s.Step != 5 {
		t.Fatalf("sample key %+v", s.Key())
	}
	if len(s.Input) != 6 || len(s.Output) != scale.GridN*scale.GridN {
		t.Fatalf("sample dims %d/%d", len(s.Input), len(s.Output))
	}
	// Physical sanity: field temperatures within the sampled range.
	for _, v := range s.Output {
		if v < 99 || v > 501 {
			t.Fatalf("field value %v outside design range", v)
		}
	}
	all := e.AllSamples()
	if len(all) != 4*scale.StepsPerSim {
		t.Fatalf("all samples %d", len(all))
	}
	// Determinism: same seeds, same data.
	e2, err := GenerateEnsemble(scale, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2 := e2.Sample(2, 5)
	for i := range s.Output {
		if s.Output[i] != s2.Output[i] {
			t.Fatal("ensemble generation not deterministic")
		}
	}
	// Different offsets decorrelate.
	e3, err := GenerateEnsemble(scale, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range e.Params[0] {
		if e3.Params[0][i] != e.Params[0][i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed offset had no effect")
	}
}

// TestValidationSetShape: a figure validates on the held-out set of the
// server its scale describes, ValidationSims whole members.
func TestValidationSetShape(t *testing.T) {
	scale := Tiny()
	q, err := newQuality(scale, scale.SimsSmall)
	if err != nil {
		t.Fatal(err)
	}
	vs := q.trainer.Validation
	if vs == nil || vs.Len() != scale.ValidationSims*scale.StepsPerSim {
		t.Fatalf("validation set %v, want %d samples", vs, scale.ValidationSims*scale.StepsPerSim)
	}
	if q.trainer.BatchSize != scale.BatchSize || q.buffer.Capacity != scale.Capacity || q.buffer.Threshold != scale.Threshold {
		t.Fatalf("trainer batch %d, buffer %d/%d: not the scale's Config", q.trainer.BatchSize, q.buffer.Capacity, q.buffer.Threshold)
	}
}

func TestFigure2Shapes(t *testing.T) {
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	fifo := res.MeanThroughput(buffer.FIFOKind)
	firo := res.MeanThroughput(buffer.FIROKind)
	reservoir := res.MeanThroughput(buffer.ReservoirKind)

	// Paper Table 1 row shape: Reservoir ≈ 147.6 > FIFO ≈ 118 ≈ FIRO ≈ 114.
	if reservoir <= fifo || reservoir <= firo {
		t.Fatalf("Reservoir %.1f must beat FIFO %.1f and FIRO %.1f", reservoir, fifo, firo)
	}
	if reservoir < 130 || reservoir > 160 {
		t.Fatalf("Reservoir throughput %.1f outside paper band [130,160]", reservoir)
	}
	// Paper reports 118; our mean includes the inter-series idle gaps, so
	// the band extends below (production rate ≈ 107 minus gap time).
	if fifo < 70 || fifo > 135 {
		t.Fatalf("FIFO throughput %.1f outside band [70,135]", fifo)
	}

	// Every sample produced is consumed at least once; FIFO exactly once.
	for _, kind := range res.Kinds {
		if got := res.Runs[kind].Unique; got != 25000 {
			t.Fatalf("%s unique %d, want 25000", kind, got)
		}
	}
	if res.Runs[buffer.FIFOKind].Samples != 25000 {
		t.Fatal("FIFO must consume each sample exactly once")
	}
	if res.Runs[buffer.ReservoirKind].Samples <= 25000 {
		t.Fatal("Reservoir must repeat samples")
	}

	// Reservoir population approaches capacity; FIRO stays near threshold.
	peak := func(kind buffer.Kind) int {
		p := 0
		for _, tp := range res.Runs[kind].Trace {
			if tp.Total > p {
				p = tp.Total
			}
		}
		return p
	}
	if p := peak(buffer.ReservoirKind); p < 5500 {
		t.Fatalf("Reservoir peak population %d, want ≈6000", p)
	}
	if p := peak(buffer.FIROKind); p > 2500 {
		t.Fatalf("FIRO peak population %d, should hover near threshold 1000", p)
	}

	// FIFO throughput dips at the series transitions (§4.3): the minimum
	// windowed throughput is well below the steady rate.
	times, rates := res.Runs[buffer.FIFOKind].ThroughputSeries(10)
	if len(times) == 0 {
		t.Fatal("no throughput series")
	}
	min, max := rates[0], rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if min > 0.7*max {
		t.Fatalf("FIFO throughput never dipped (min %.1f, max %.1f); series gaps not visible", min, max)
	}

	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Reservoir") {
		t.Fatal("render missing rows")
	}
}

func TestFigure3Shapes(t *testing.T) {
	res, err := Figure3()
	if err != nil {
		t.Fatal(err)
	}
	// Repetition grows with GPU count at fixed production.
	if !(res.MeanOcc[1] < res.MeanOcc[2] && res.MeanOcc[2] < res.MeanOcc[4]) {
		t.Fatalf("mean occurrences not increasing: %v", res.MeanOcc)
	}
	// Paper: most samples seen a couple of times, rarely more than ~8
	// at 1 GPU.
	h1 := res.Histograms[1]
	total := 0
	for occ := 0; occ <= h1.Max(); occ++ {
		total += h1.Count(occ)
	}
	if total != 25000 {
		t.Fatalf("1-GPU histogram total %d", total)
	}
	if h1.Max() > 16 {
		t.Fatalf("1-GPU max occurrence %d, expected small tail", h1.Max())
	}
	if res.MeanOcc[1] < 1.05 || res.MeanOcc[1] > 3 {
		t.Fatalf("1-GPU mean occurrence %.2f outside plausible band", res.MeanOcc[1])
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Occurrences") {
		t.Fatal("render broken")
	}
}

func TestFigure4TinyMechanics(t *testing.T) {
	scale := Tiny()
	res, err := Figure4(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs %d", len(res.Runs))
	}
	unique := scale.SimsSmall * scale.StepsPerSim
	for _, run := range res.Runs {
		if run.Batches == 0 || len(run.Val) == 0 {
			t.Fatalf("%s: empty run", run.Label)
		}
		if run.FinalVal <= 0 {
			t.Fatalf("%s: non-positive validation %v", run.Label, run.FinalVal)
		}
		if run.Label != "Offline-1epoch" && run.Unique != unique {
			t.Fatalf("%s: unique %d, want %d", run.Label, run.Unique, unique)
		}
	}
	// FIFO and offline see each sample exactly once.
	if res.Run("FIFO").Samples != unique {
		t.Fatal("FIFO sample count")
	}
	// Reservoir trains on more batches via repetition.
	if res.Run("Reservoir").Samples <= unique {
		t.Fatal("Reservoir did not repeat")
	}
	// Reservoir's extra optimization steps give it the lowest loss here.
	if res.Run("Reservoir").FinalVal >= res.Run("FIFO").FinalVal {
		t.Fatal("Reservoir should beat FIFO at tiny scale")
	}
}

func TestFigure6TinyMechanics(t *testing.T) {
	scale := Tiny()
	res, err := Figure6(scale)
	if err != nil {
		t.Fatal(err)
	}
	// The offline half is the product's offline path: the same Config
	// through GenerateDataset and TrainOffline gives the same run.
	cfg := scale.Config
	cfg.Simulations = scale.OfflineSims()
	cfg.Ranks = 4
	cfg.ValidateEvery = scale.ValidateEverySamples / (scale.BatchSize * 4)
	dir := t.TempDir()
	ctx := context.Background()
	info, err := melissa.GenerateDataset(ctx, cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := melissa.TrainOffline(ctx, cfg, dir, scale.OfflineEpochs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offline.Batches != direct.Batches || res.Offline.FinalVal != direct.ValidationMSE || res.OfflineBytes != info.Bytes {
		t.Fatalf("offline half: %d batches, final val %v, %d bytes; GenerateDataset + TrainOffline: %d, %v, %d",
			res.Offline.Batches, res.Offline.FinalVal, res.OfflineBytes, direct.Batches, direct.ValidationMSE, info.Bytes)
	}
	if res.Online.Unique <= Tiny().SimsSmall*Tiny().StepsPerSim {
		t.Fatal("online must see more unique data than the offline dataset")
	}
	if res.OfflineBytes <= 0 {
		t.Fatal("offline dataset bytes missing")
	}
	if res.Improvement <= 0 {
		t.Fatalf("online should improve on offline at matched seeds; got %.2f", res.Improvement)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "improvement") {
		t.Fatal("render broken")
	}
}

func TestTable1Timing(t *testing.T) {
	res, err := Table1(Tiny(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("rows %d, want 12", len(res.Rows))
	}
	// Reservoir throughput scales with GPUs; FIFO/FIRO do not (paper's
	// central Table 1 finding).
	r1 := res.Row("Reservoir", 1).ThroughputSmps
	r4 := res.Row("Reservoir", 4).ThroughputSmps
	if r4 < 2.5*r1 {
		t.Fatalf("Reservoir 4-GPU %.1f not ≥2.5× 1-GPU %.1f", r4, r1)
	}
	f1 := res.Row("FIFO", 1).ThroughputSmps
	f4 := res.Row("FIFO", 4).ThroughputSmps
	if f4 > 1.3*f1 {
		t.Fatalf("FIFO should stay production-bound: %.1f vs %.1f", f4, f1)
	}
	// Offline is far slower than every online setting at 4 GPUs and pays
	// generation up front.
	off := res.Row("Offline", 4)
	if off.ThroughputSmps > res.Row("FIFO", 4).ThroughputSmps {
		t.Fatal("offline throughput should be I/O bound below online")
	}
	if off.GenerationH <= 0 {
		t.Fatal("offline generation hours missing")
	}
	if off.TotalH <= res.Row("Reservoir", 4).TotalH {
		t.Fatal("offline total time should exceed online")
	}
	// Paper band checks (±15%): offline 1-GPU ≈ 13.2 samples/s,
	// Reservoir 1 GPU ≈ 147.6.
	if v := res.Row("Offline", 1).ThroughputSmps; v < 11 || v > 16 {
		t.Fatalf("offline 1-GPU throughput %.1f outside paper band", v)
	}
	if v := r1; v < 130 || v > 160 {
		t.Fatalf("Reservoir 1-GPU throughput %.1f outside paper band", v)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Reservoir") {
		t.Fatal("render broken")
	}
}

func TestTable2Timing(t *testing.T) {
	if testing.Short() {
		// Tiny-scale fallback: the identical pipeline on the ~20×
		// smaller ensemble, checking structure instead of paper bands.
		res, err := table2Ensemble(TinyPaperEnsemble(), Tiny(), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.OnlineUnique != 1000*100 {
			t.Fatalf("tiny online unique %d", res.OnlineUnique)
		}
		if res.OnlineTotalH <= 0 || res.OfflineTotalH <= 0 {
			t.Fatalf("non-positive hours: %+v", res)
		}
		if res.ThroughputRatio <= 1 {
			t.Fatalf("online should out-throughput offline: ratio %.2f", res.ThroughputRatio)
		}
		var sb strings.Builder
		res.Render(&sb)
		if !strings.Contains(sb.String(), "ratio") {
			t.Fatal("render broken")
		}
		return
	}
	res, err := Table2(Tiny(), false)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 2,000,000 unique samples, 8 TB, ≈1.97 h online vs ≈24.5 h
	// offline, throughput 476.7 vs 38.2 (12.5×).
	if res.OnlineUnique != 2000000 {
		t.Fatalf("online unique %d", res.OnlineUnique)
	}
	if res.OnlineBytes < 7.5e12 || res.OnlineBytes > 8.5e12 {
		t.Fatalf("online dataset %.2f TB, want ≈8", res.OnlineBytes/1e12)
	}
	if res.OnlineTotalH < 1.7 || res.OnlineTotalH > 2.4 {
		t.Fatalf("online total %.2f h, paper ≈1.97", res.OnlineTotalH)
	}
	if res.OfflineTotalH < 15 || res.OfflineTotalH > 30 {
		t.Fatalf("offline total %.2f h, paper ≈24.5", res.OfflineTotalH)
	}
	if res.ThroughputRatio < 10 || res.ThroughputRatio > 16 {
		t.Fatalf("throughput ratio %.1f, paper ≈12.5", res.ThroughputRatio)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "ratio") {
		t.Fatal("render broken")
	}
}

func TestAppendixA(t *testing.T) {
	res := AppendixA([]int{16, 64}, 20000)
	if len(res.Rows) != 2 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RelError > 0.15 {
			t.Fatalf("capacity %d: measured %.1f vs predicted %.1f (err %.1f%%)",
				row.Capacity, row.Measured, row.Predicted, 100*row.RelError)
		}
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "Residency") && !strings.Contains(sb.String(), "residency") {
		t.Fatal("render broken")
	}
}

func TestAblationCapacity(t *testing.T) {
	rows, err := AblationCapacity([]int{1500, 6000, 24000})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	// Larger capacity → more repetition headroom → throughput non-decreasing.
	for i := 1; i < len(rows); i++ {
		if rows[i].Throughput < rows[i-1].Throughput*0.98 {
			t.Fatalf("throughput dropped with capacity: %+v", rows)
		}
	}
	for _, r := range rows {
		if r.Repetition < 1 {
			t.Fatalf("repetition %v < 1", r.Repetition)
		}
		if r.PeakPop > r.Capacity {
			t.Fatalf("peak population %d exceeds capacity %d", r.PeakPop, r.Capacity)
		}
	}
}

func TestAblationThreshold(t *testing.T) {
	rows, err := AblationThreshold([]int{0, 1000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	// Higher threshold delays the first batch.
	for i := 1; i < len(rows); i++ {
		if rows[i].FirstBatchAt < rows[i-1].FirstBatchAt {
			t.Fatalf("first batch time not increasing with threshold: %+v", rows)
		}
	}
}

func TestAblationAllReduce(t *testing.T) {
	rows := AblationAllReduce()
	if len(rows) != 4 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[0].Efficiency != 1 {
		t.Fatalf("1-GPU efficiency %v", rows[0].Efficiency)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Efficiency >= rows[i-1].Efficiency {
			t.Fatalf("efficiency should fall with GPU count: %+v", rows)
		}
		if rows[i].Efficiency < 0.5 {
			t.Fatalf("efficiency %v implausibly low", rows[i].Efficiency)
		}
	}
}

// TestFigure4DefaultShapes pins the paper's qualitative Figure 4 findings
// at the default quality scale. Skipped with -short (≈20 s).
func TestFigure4DefaultShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale quality run (~14 s); the tiny-scale fallback is TestFigure4TinyMechanics")
	}
	res, err := Figure4(Default())
	if err != nil {
		t.Fatal(err)
	}
	fifo := res.Run("FIFO")
	firo := res.Run("FIRO")
	reservoir := res.Run("Reservoir")
	offline := res.Run("Offline-1epoch")

	// FIFO overfits: validation ≫ training loss.
	fifoTrain := fifo.Train[len(fifo.Train)-1].Value
	if fifo.FinalVal < 5*fifoTrain {
		t.Fatalf("FIFO should overfit: val %.3g vs train %.3g", fifo.FinalVal, fifoTrain)
	}
	// Ordering: Reservoir < FIRO ≤ FIFO on validation.
	if !(reservoir.FinalVal < firo.FinalVal && firo.FinalVal <= fifo.FinalVal*1.05) {
		t.Fatalf("validation ordering broken: R=%.3g FIRO=%.3g FIFO=%.3g",
			reservoir.FinalVal, firo.FinalVal, fifo.FinalVal)
	}
	// Reservoir on par with (here: better than) the offline reference.
	if reservoir.FinalVal > offline.FinalVal {
		t.Fatalf("Reservoir %.3g worse than offline %.3g", reservoir.FinalVal, offline.FinalVal)
	}
}

func TestAblationEviction(t *testing.T) {
	rows, err := AblationEviction()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	reservoir, uniform := rows[0], rows[1]
	if reservoir.Policy != "Reservoir" || uniform.Policy != "UniformEvict" {
		t.Fatalf("row order: %+v", rows)
	}
	// The Reservoir never discards unseen data (§3.2.3); the ablation does.
	if reservoir.Coverage < 0.9999 {
		t.Fatalf("Reservoir coverage %.4f, want 1.0", reservoir.Coverage)
	}
	if uniform.Coverage > 0.95 {
		t.Fatalf("UniformEvict coverage %.4f: expected substantial data loss under overproduction", uniform.Coverage)
	}
	var sb strings.Builder
	RenderEvictionAblation(&sb, rows)
	if !strings.Contains(sb.String(), "UniformEvict") {
		t.Fatal("render broken")
	}
}

func TestAblationOfflineDataTiny(t *testing.T) {
	rows, err := AblationOfflineData(Tiny(), []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows %d", len(rows))
	}
	for _, r := range rows {
		if r.OfflineVal <= 0 || r.OnlineVal <= 0 {
			t.Fatalf("invalid row %+v", r)
		}
		if r.Epochs < 1 {
			t.Fatalf("epoch computation broken: %+v", r)
		}
	}
	// Online value is shared across rows.
	if rows[0].OnlineVal != rows[1].OnlineVal {
		t.Fatal("online reference should be shared")
	}
	var sb strings.Builder
	RenderOfflineDataAblation(&sb, rows)
	if !strings.Contains(sb.String(), "crossover") {
		t.Fatal("render broken")
	}
}

// TestFigure6DefaultShapes pins the paper's Figure 6 finding at the default
// quality scale: the offline multi-epoch baseline overfits its fixed
// dataset while online training on fresh streamed data generalizes better
// (paper: 47% lower validation MSE; this scale reproduces ≈50%).
func TestFigure6DefaultShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale quality run (~50 s); the tiny-scale fallback is TestFigure6TinyMechanics")
	}
	res, err := Figure6(Default())
	if err != nil {
		t.Fatal(err)
	}
	if res.Improvement < 0.2 || res.Improvement > 0.9 {
		t.Fatalf("online improvement %.1f%% outside [20%%, 90%%] (paper: 47%%)", 100*res.Improvement)
	}
	// Offline must show the overfitting signature: validation well above
	// its final training loss.
	offTrain := res.Offline.Train[len(res.Offline.Train)-1].Value
	if res.Offline.FinalVal < 5*offTrain {
		t.Fatalf("offline baseline did not overfit: train %.3g val %.3g", offTrain, res.Offline.FinalVal)
	}
}

func TestCostAnalysis(t *testing.T) {
	if testing.Short() {
		// Tiny-scale fallback: smoke the accounting pipeline on the
		// small ensemble; euro figures only make sense at paper scale.
		res, err := costAnalysisEnsemble(TinyPaperEnsemble())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("rows %d", len(res.Rows))
		}
		for _, row := range res.Rows {
			if row.TotalEuro <= 0 {
				t.Fatalf("non-positive cost row %+v", row)
			}
			if sum := row.CPUEuro + row.GPUEuro + row.StorageEur; sum != row.TotalEuro {
				t.Fatalf("row %q total %.4f != parts %.4f", row.Setting, row.TotalEuro, sum)
			}
		}
		return
	}
	res, err := CostAnalysis()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows %d", len(res.Rows))
	}
	within := func(name string, got, want, tol float64) {
		t.Helper()
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Fatalf("%s = %.1f€, paper %.1f€ (±%.0f%%)", name, got, want, tol*100)
		}
	}
	// §5 figures: 63.8€ online, ~49€ offline, 41€ repeated, 480€ storage.
	within("online", res.Rows[0].TotalEuro, 63.8, 0.15)
	within("offline", res.Rows[1].TotalEuro, 49.1, 0.35)
	within("repeat", res.Rows[2].TotalEuro, 41.16, 0.35)
	within("storage", res.Rows[3].TotalEuro, 480, 0.10)
	// The paper's qualitative claim: online costs only modestly more than
	// one offline generation+training pass.
	ratio := res.Rows[0].TotalEuro / res.Rows[1].TotalEuro
	if ratio < 1.0 || ratio > 2.0 {
		t.Fatalf("online/offline cost ratio %.2f outside [1,2] (paper: 1.29)", ratio)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "cost analysis") {
		t.Fatal("render broken")
	}
}

func TestReservationOrder(t *testing.T) {
	rows, err := ReservationOrder(1.5) // busy CPU partition: 1.5 h backlog
	if err != nil {
		t.Fatal(err)
	}
	gpuFirst, cpuFirst := rows[0], rows[1]
	if gpuFirst.Strategy != "GPU first" || cpuFirst.Strategy != "CPU first" {
		t.Fatalf("rows %+v", rows)
	}
	// GPU-first idles the expensive GPUs for the CPU backlog duration.
	if gpuFirst.GPUIdleH < 1.0 {
		t.Fatalf("GPU-first idle %.2f h, expected ≈ backlog", gpuFirst.GPUIdleH)
	}
	// CPU-first only idles cores for the short GPU wait.
	if cpuFirst.CPUIdleH > 0.2 {
		t.Fatalf("CPU-first idle %.2f h, expected ≈ GPU wait", cpuFirst.CPUIdleH)
	}
	// §3.1's conclusion: CPU-first is "the most economical approach".
	if gpuFirst.WastedEuro <= 0 {
		t.Fatalf("GPU-first waste not accounted: %+v", rows)
	}
	if cpuFirst.WastedEuro >= gpuFirst.WastedEuro {
		t.Fatalf("CPU-first (%.2f€) should undercut GPU-first (%.2f€)",
			cpuFirst.WastedEuro, gpuFirst.WastedEuro)
	}
	var sb strings.Builder
	RenderReservation(&sb, rows)
	if !strings.Contains(sb.String(), "GPU first") {
		t.Fatal("render broken")
	}
}

// TestGrayScottScale verifies the presets are really problem-agnostic:
// with the Gray–Scott problem selected, ensemble generation and the
// figures' trainer — its normalizer, model and validation set — all
// follow the problem's two-channel geometry instead of silently assuming
// the heat equation.
func TestGrayScottScale(t *testing.T) {
	scale := Tiny()
	scale.Problem = melissa.GrayScott()
	scale.Dt = 1 // Gray–Scott's stable step size at the tiny grid

	q, err := newQuality(scale, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantDim := 2 * scale.GridN * scale.GridN
	norm := q.trainer.Normalizer
	if norm.InputDim() != 5 { // F, k, Du, Dv + time
		t.Fatalf("input dim %d, want 5", norm.InputDim())
	}
	if norm.OutputDim() != wantDim {
		t.Fatalf("output dim %d, want two channels %d", norm.OutputDim(), wantDim)
	}
	if spec := q.trainer.Model; spec.InputDim != 5 || spec.OutputDim != wantDim {
		t.Fatalf("model %d → %d, want 5 → %d", spec.InputDim, spec.OutputDim, wantDim)
	}
	if vs := q.trainer.Validation; vs.Len() != scale.ValidationSims*scale.StepsPerSim || vs.Out.Cols != wantDim {
		t.Fatalf("validation set %d × %d, want %d × %d", vs.Len(), vs.Out.Cols, scale.ValidationSims*scale.StepsPerSim, wantDim)
	}

	data, err := GenerateEnsemble(scale, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := data.Sample(1, 3)
	if len(s.Input) != 5 || len(s.Output) != wantDim {
		t.Fatalf("sample dims %d/%d, want 5/%d", len(s.Input), len(s.Output), wantDim)
	}

	// The trainer trains on the problem's geometry end to end.
	run, err := q.train(1, "gray-scott", offline(scale, data.AllSamples()[:scale.BatchSize], 1))
	if err != nil {
		t.Fatal(err)
	}
	if run.Batches != 1 || run.Samples != scale.BatchSize || run.FinalVal <= 0 {
		t.Fatalf("run recorded %d batches / %d samples, final val %v", run.Batches, run.Samples, run.FinalVal)
	}
}

// TestQualityRunsDeterministic: a quality run is a function of its scale.
// Every buffer policy at 1, 2 and 4 GPUs gives the same curves and counts
// twice, although the producer and the ranks run on goroutines of their
// own. The 4-rank runs drain their ranks on different steps (one rank a
// step before the others), where a short batch ends its rank's reception.
// Here the feeder's two batches of slack would hide a missing End; core's
// TestRunFedRankEndedEarly is the run that hangs without it.
func TestQualityRunsDeterministic(t *testing.T) {
	var runs [2]*Figure5Result
	for i := range runs {
		res, err := testwait.Run2(t, "Figure5(Tiny())", func() (*Figure5Result, error) { return Figure5(Tiny()) })
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = res
	}
	a, b := runs[0], runs[1]
	if len(a.Online) != len(a.Kinds)*len(a.GPUs) {
		t.Fatalf("%d online runs, want %d", len(a.Online), len(a.Kinds)*len(a.GPUs))
	}
	for label, x := range a.Online {
		y := b.Online[label]
		if x.Batches != y.Batches || x.Samples != y.Samples || x.Unique != y.Unique ||
			!slices.Equal(x.Train, y.Train) || !slices.Equal(x.Val, y.Val) {
			t.Errorf("%s: two runs differ: %d/%d batches, %d/%d samples, %d/%d unique, final val %v/%v",
				label, x.Batches, y.Batches, x.Samples, y.Samples, x.Unique, y.Unique, x.FinalVal, y.FinalVal)
		}
	}
}

// MeanThroughput returns a run's mean throughput, for assertions.
func (r *Figure2Result) MeanThroughput(kind buffer.Kind) float64 {
	return r.Runs[kind].MeanThroughput()
}

// Run returns the named run, nil if absent.
func (r *Figure4Result) Run(label string) *QualityRun {
	for _, run := range r.Runs {
		if run.Label == label {
			return run
		}
	}
	return nil
}

// Row fetches a row by buffer name and GPU count.
func (r *Table1Result) Row(buf string, gpus int) *Table1Row {
	for i := range r.Rows {
		if r.Rows[i].Buffer == buf && r.Rows[i].GPUs == gpus {
			return &r.Rows[i]
		}
	}
	return nil
}

// TinyPaperEnsemble scales the Table 2 online setting down ~20× while
// keeping its shape (resource-bound single series). Short-mode tests use it
// to smoke the paper-scale pipelines in well under a second.
func TinyPaperEnsemble() PaperEnsemble {
	return PaperEnsemble{
		Simulations:    1000,
		StepsPerSim:    100,
		CoresPerClient: 10,
		TotalCores:     1280,
		Series:         nil,
		BatchSize:      10,
		Capacity:       6000,
		Threshold:      1000,
		Seed:           2023,
	}
}
