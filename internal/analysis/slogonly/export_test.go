package slogonly

// Pkgs lets the fixture test clear the package scope.
var Pkgs = &pkgs
