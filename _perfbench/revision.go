package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// sourceRevision names the code being measured: the git commit when the
// checkout is a git work tree, else "tree-" and a hash of the module's
// sources (go.mod, cmd, internal and _perfbench).
func sourceRevision() string {
	if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	for _, root := range []string{"go.mod", "cmd", "internal", "_perfbench"} {
		// WalkDir visits files in lexical order, so the hash is stable.
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil
			}
			h.Write([]byte(path))
			h.Write(data)
			return nil
		})
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:16]
}
