package dct

import "testing"

// RowPassCheck, when set, receives every row pass this package's tests
// hold QuantizeInterRows (checkFused) and QuantizeIntraRows
// (checkIntraRows) to Forward and the quantiser with — the adversarial
// zero-column constructions, the tabled shapes and the fuzz corpora. The
// external test package sets it (colquant_test.go): unlike this package
// it may import internal/metrics, whose kernel-table column pass must
// match these functions on exactly those inputs.
var RowPassCheck func(t *testing.T, what string, rp *RowPass, qp int, intra bool)
