//go:build race

package main

func init() { tinySeconds = 2.5 }
