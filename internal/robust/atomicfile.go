package robust

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with data via write-to-temp + rename in the
// same directory, so a kill mid-write leaves either the old file or the new
// one, never a torn mix. Like os.CreateTemp, the file is created 0600. No
// fsync: the guarantee is crash-of-process safety, which every state file in
// the repo (checkpoints, manifests, beacons) relies on. On failure the temp
// file is removed and path is untouched.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}
