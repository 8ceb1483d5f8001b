// Package resultstore is the fixture persistence layer: faultpath protects
// the error results of its Write/Put pair by package-name match.
package resultstore

// Store persists results.
type Store struct{ fail bool }

// Write persists one result.
func (s *Store) Write(key string) error {
	if s.fail {
		return errFail
	}
	return nil
}

// Put persists a raw entry and reports how many bytes landed: the error
// sits at index 1, exercising the multi-result discard check.
func (s *Store) Put(key string) (int, error) {
	if s.fail {
		return 0, errFail
	}
	return len(key), nil
}

// Hint returns nothing: calls to it are never flagged.
func (s *Store) Hint(key string) {}

// Writer is an interface over the store; calls through it resolve to this
// interface method object, not a static callee.
type Writer interface {
	Write(key string) error
}

type storeError string

func (e storeError) Error() string { return string(e) }

var errFail error = storeError("store failed")
