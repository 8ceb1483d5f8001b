// Package harness (in recover scope by name) seeds faultpath's true
// positives and the compliant recover/persist idioms.
package harness

import (
	"encoding/csv"
	"io"

	"fault/resultstore"
	"fault/simfault"
)

var lastPanic string

// runTyped is the compliant recovery contract: the recovered value is
// converted to a *simfault.Fault before it escapes.
func runTyped(job func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = simfault.FromPanic(r)
		}
	}()
	job()
	return nil
}

// runRaw swallows the panic into a string: the job identity is stripped.
func runRaw(job func()) (err error) {
	defer func() {
		if r := recover(); r != nil { // want `faultpath: recover\(\) does not convert to \*simfault\.Fault`
			lastPanic = "lost"
		}
	}()
	job()
	return nil
}

// persist exercises the discard checks against the fixture store.
func persist(st *resultstore.Store, key string) error {
	// Handled: compliant.
	if err := st.Write(key); err != nil {
		return err
	}

	// Ignored return on an expression statement.
	st.Write(key) // want `faultpath: error from Write is discarded \(return value is ignored\)`
	st.Put(key)   // want `faultpath: error from Put is discarded \(return value is ignored\)`

	// Parked on the blank identifier.
	_ = st.Write(key) // want `faultpath: error from Write is discarded \(assigned to _\)`

	// Multi-result call with the error blanked at index 1.
	n, _ := st.Put(key) // want `faultpath: error from Put is discarded \(assigned to _\)`
	_ = n

	// Waived with a reason: the store counts the failure itself.
	//aurora:allow(fault, fixture: failure is counted in Stats.PutErrors)
	_ = st.Write(key)

	// No error result: never flagged.
	st.Hint(key)
	return nil
}

// persistIface discards through the interface.
func persistIface(st resultstore.Writer, key string) {
	_ = st.Write(key) // want `faultpath: error from Write is discarded \(assigned to _\)`
}

// export drops a csv.Writer error, publishing a truncated artifact.
func export(w io.Writer, rec []string) {
	cw := csv.NewWriter(w)
	_ = cw.Write(rec) // want `faultpath: error from Write is discarded \(assigned to _\)`
	cw.Flush()
}
