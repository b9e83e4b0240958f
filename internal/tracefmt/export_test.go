package tracefmt

// The encoding/json oracles, for the external test package.
var (
	OracleWriteSpans       = oracleWriteSpans
	OracleWriteChromeTrace = oracleWriteChromeTrace
)
