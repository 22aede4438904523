//! Just enough JSON: write string literals, and read the metric lists of
//! `BENCHMARK.json` for the self-test.

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub bound: Option<f64>,
}

/// The metrics of the array under `key` (`"end_to_end"` or
/// `"per_layer"`): flat objects whose names, units and bounds hold no
/// braces, brackets or escaped quotes, as in `BENCHMARK.json`.
pub fn declared(text: &str, key: &str) -> Vec<Declared> {
    let Some(start) = text.find(&format!("\"{key}\"")) else {
        return Vec::new();
    };
    let body = &text[start..];
    let body = &body[..body.find(']').unwrap_or(body.len())];
    body.split('{')
        .skip(1)
        .filter_map(|obj| {
            let obj = &obj[..obj.find('}')?];
            Some(Declared {
                name: string_field(obj, "name")?,
                unit: string_field(obj, "unit")?,
                bound: field(obj, "bound").and_then(|v| v.parse().ok()),
            })
        })
        .collect()
}

/// The raw text of `"key": <value>` up to the next comma.
fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[at..].trim_start().strip_prefix(':')?.trim_start();
    Some(rest[..rest.find(',').unwrap_or(rest.len())].trim())
}

fn string_field(obj: &str, key: &str) -> Option<String> {
    let v = field(obj, key)?;
    Some(v.strip_prefix('"')?.strip_suffix('"')?.to_string())
}
