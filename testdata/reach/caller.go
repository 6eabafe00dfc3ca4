// Package corgipile is the caller of TestReachableFieldClasses's fixture.
package corgipile

import "corgipile/internal/fix"

var _ = fix.Use()
