package staticlint

// LintEDL exposes the every-detector fixture to the external tests.
const LintEDL = lintEDL
