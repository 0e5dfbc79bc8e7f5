package sweep

// FileVersion exposes fileVersion so tests can version stand-in
// executables.
var FileVersion = fileVersion
