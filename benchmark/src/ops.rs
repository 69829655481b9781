//! Query templates, their keys, and the operation block a trial replays.
//!
//! A *block* is a fixed shuffled list of slots, each naming a template
//! and either one of the template's hot keys or "the next cold key". A
//! trial replays the block pass after pass: hot slots repeat their text
//! byte for byte (so their plans can be cached), cold slots take a key
//! no earlier operation of the trial has used (so they cannot be). The
//! block, the hot sets and the cold sequences depend on the seed and on
//! the template list only — `lookup_mat` and `lookup_rewrite` therefore
//! replay the same texts.

use crate::config::HOT_PERCENT;
use crate::gen::{actor_iri, db_ns, Dataset, AGES, AGE_MIN, VOCAB, YEAR_MIN};
use crate::model::{Model, Row};
use crate::rng::{fnv1a, Rng, FNV_OFFSET};
use rps_core::SparqlResult;
use rps_rdf::Term;
use std::sync::Arc;

/// A query template.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Template {
    /// Cast of a film through the hub shape.
    CastHub,
    /// Films of a person.
    FilmsOf,
    /// Example 1 (film → artist → age) with an OPTIONAL nickname.
    AgeOpt,
    /// ASK membership of a person in a cast, half true, half false.
    AskCast,
    /// Casts of a year's films, FILTER on an age interval, ORDER BY, LIMIT.
    AgeRange,
    /// Self-join through the hub shape: who shared a film of a year.
    Costar,
    /// UNION over the peers' cast vocabularies, DISTINCT.
    UnionCast,
    /// Everybody of one age, nickname OPTIONAL.
    NickOptScan,
}

/// Rows `age_range` keeps.
pub const AGE_RANGE_LIMIT: usize = 100;
/// Width of `age_range`'s interval.
const AGE_RANGE_WIDTH: usize = 25;

impl Template {
    /// The four point templates of the lookup workloads.
    pub const POINT: [Template; 4] = [
        Template::CastHub,
        Template::FilmsOf,
        Template::AgeOpt,
        Template::AskCast,
    ];
    /// The four heavy templates of `analytic_mat`.
    pub const ANALYTIC: [Template; 4] = [
        Template::AgeRange,
        Template::Costar,
        Template::UnionCast,
        Template::NickOptScan,
    ];

    /// The name used in metric names (`tmpl.<name>.p50_us`).
    pub fn name(self) -> &'static str {
        match self {
            Template::CastHub => "cast_hub",
            Template::FilmsOf => "films_of",
            Template::AgeOpt => "age_opt",
            Template::AskCast => "ask_cast",
            Template::AgeRange => "age_range",
            Template::Costar => "costar",
            Template::UnionCast => "union_cast",
            Template::NickOptScan => "nick_opt_scan",
        }
    }
}

/// What a key is made of.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Key {
    /// A film IRI.
    Film(String),
    /// A person IRI.
    Person(String),
    /// A film and a person.
    Pair(String, String),
    /// A release year.
    Year(usize),
    /// An age.
    Age(usize),
}

/// What the model says an operation must return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Exactly these rows (sorted).
    Rows(Vec<Row>),
    /// This truth value.
    Ask(bool),
    /// `rows` rows after the LIMIT, every age in `lo..hi`, oldest first.
    AgeRange {
        /// Rows after the LIMIT.
        rows: usize,
        /// Lowest age kept.
        lo: usize,
        /// First age not kept.
        hi: usize,
    },
    /// This many distinct rows.
    Count(usize),
    /// `rows` rows of which `bound` bind the nickname.
    NickOpt {
        /// Rows.
        rows: usize,
        /// Rows with a nickname.
        bound: usize,
    },
}

/// One operation: SPARQL text and what it must answer.
#[derive(Clone, Debug)]
pub struct Op {
    /// Its template.
    pub template: Template,
    /// `true` iff its key was never used before in the trial.
    pub cold: bool,
    /// The SPARQL text sent to the engine.
    pub text: String,
    /// The model's answer.
    pub expect: Expect,
}

fn age_range_bounds(year: usize) -> (usize, usize) {
    let lo = AGE_MIN + (year * 7) % (AGES - AGE_RANGE_WIDTH);
    (lo, lo + AGE_RANGE_WIDTH)
}

/// Renders the SPARQL text of `template` for `key`.
pub fn render(template: Template, key: &Key) -> String {
    let p = format!("PREFIX v: <{VOCAB}> ");
    match (template, key) {
        (Template::CastHub, Key::Film(f)) => {
            format!("{p}SELECT ?p WHERE {{ <{f}> v:starring ?z . ?z v:artist ?p }}")
        }
        (Template::FilmsOf, Key::Person(x)) => {
            format!("{p}SELECT ?f WHERE {{ ?f v:starring ?z . ?z v:artist <{x}> }}")
        }
        (Template::AgeOpt, Key::Film(f)) => format!(
            "{p}SELECT ?x ?y ?n WHERE {{ <{f}> v:starring ?z . ?z v:artist ?x . ?x v:age ?y \
             OPTIONAL {{ ?x v:nick ?n }} }}"
        ),
        (Template::AskCast, Key::Pair(f, x)) => {
            format!("{p}ASK {{ <{f}> v:starring ?z . ?z v:artist <{x}> }}")
        }
        (Template::AgeRange, Key::Year(y)) => {
            let (lo, hi) = age_range_bounds(*y);
            format!(
                "{p}SELECT ?f ?x ?a WHERE {{ ?f v:year \"{y}\" . ?f v:starring ?z . \
                 ?z v:artist ?x . ?x v:age ?a FILTER(?a >= \"{lo}\" && ?a < \"{hi}\") }} \
                 ORDER BY DESC(?a) ?x ?f LIMIT {AGE_RANGE_LIMIT}"
            )
        }
        (Template::Costar, Key::Year(y)) => format!(
            "{p}SELECT DISTINCT ?p ?q WHERE {{ ?f v:year \"{y}\" . ?f v:starring ?z1 . \
             ?z1 v:artist ?p . ?f v:starring ?z2 . ?z2 v:artist ?q }}"
        ),
        (Template::UnionCast, Key::Year(y)) => format!(
            "{p}SELECT DISTINCT ?f ?p WHERE {{ ?f v:year \"{y}\" \
             {{ ?f v:starring ?z . ?z v:artist ?p }} UNION {{ ?f <{}> ?p }} \
             UNION {{ ?f <{}> ?p }} UNION {{ ?f <{}> ?p }} }}",
            actor_iri(1),
            actor_iri(2),
            actor_iri(3)
        ),
        (Template::NickOptScan, Key::Age(a)) => {
            format!("{p}SELECT ?x ?n WHERE {{ ?x v:age \"{a}\" OPTIONAL {{ ?x v:nick ?n }} }}")
        }
        (t, k) => panic!("template {t:?} does not take key {k:?}"),
    }
}

/// The model's answer for `template` at `key`.
pub fn expect(model: &Model, template: Template, key: &Key) -> Expect {
    match (template, key) {
        (Template::CastHub, Key::Film(f)) => Expect::Rows(model.cast_hub(f)),
        (Template::FilmsOf, Key::Person(x)) => Expect::Rows(model.films_of(x)),
        (Template::AgeOpt, Key::Film(f)) => Expect::Rows(model.age_opt(f)),
        (Template::AskCast, Key::Pair(f, x)) => Expect::Ask(model.ask_cast(f, x)),
        (Template::AgeRange, Key::Year(y)) => {
            let (lo, hi) = age_range_bounds(*y);
            Expect::AgeRange {
                rows: model.age_range_count(*y, lo, hi).min(AGE_RANGE_LIMIT),
                lo,
                hi,
            }
        }
        (Template::Costar, Key::Year(y)) => Expect::Count(model.costar_count(*y)),
        (Template::UnionCast, Key::Year(y)) => Expect::Count(model.union_cast_count(*y)),
        (Template::NickOptScan, Key::Age(a)) => {
            let (rows, bound) = model.nick_opt_count(*a);
            Expect::NickOpt { rows, bound }
        }
        (t, k) => panic!("template {t:?} does not take key {k:?}"),
    }
}

/// Candidates ranked per hot key when the hot set is drawn.
const HOT_POOL_FACTOR: usize = 8;

/// What the hot set is stratified by: the size of the key's answer as
/// the model counts it; for a film, first whether the hub stores it (a
/// chased cast has a blank per equivalent `actor` triple, a stored one a
/// blank per member, so the same answer costs a different join); for
/// `ask_cast`, the outcome before anything else.
fn answer_size(model: &Model, template: Template, key: &Key) -> usize {
    let hub = |film: &str| usize::from(film.starts_with(&db_ns(0))) * 1_000_000;
    match (template, key) {
        (Template::AskCast, Key::Pair(f, x)) => {
            usize::from(model.ask_cast(f, x)) * 10_000_000 + hub(f) + model.cast_hub(f).len()
        }
        (Template::AgeRange, Key::Year(y)) => model.union_cast_count(*y),
        (_, Key::Film(f)) => hub(f) + expect(model, template, key).row_count(),
        _ => expect(model, template, key).row_count(),
    }
}

fn render_term(term: &Term) -> String {
    match term {
        Term::Iri(i) => i.as_str().to_string(),
        Term::Literal(l) => l.lexical().to_string(),
        Term::Blank(b) => format!("_:{}", b.label()),
    }
}

/// Renders a result's rows the way [`Row`]s are written, sorted.
pub fn render_rows(result: &SparqlResult) -> Vec<Row> {
    let mut rows: Vec<Row> = result
        .rows()
        .map(|r| {
            r.rows
                .iter()
                .map(|row| row.iter().map(|t| t.as_ref().map(render_term)).collect())
                .collect()
        })
        .unwrap_or_default();
    rows.sort();
    rows
}

impl Expect {
    /// Rows a correct answer has (1 for ASK).
    pub fn row_count(&self) -> usize {
        match self {
            Expect::Rows(r) => r.len(),
            Expect::Ask(_) => 1,
            Expect::AgeRange { rows, .. } | Expect::Count(rows) | Expect::NickOpt { rows, .. } => {
                *rows
            }
        }
    }

    /// The cheap check made on every measured operation.
    pub fn check_count(&self, result: &SparqlResult) -> Result<(), String> {
        let got = match (self, result) {
            (Expect::Ask(want), SparqlResult::Boolean(b)) => {
                return if b == want {
                    Ok(())
                } else {
                    Err(format!("ASK answered {b}, the model says {want}"))
                };
            }
            (Expect::Ask(_), SparqlResult::Rows(_)) | (_, SparqlResult::Boolean(_)) => {
                return Err("wrong result form".into());
            }
            (_, SparqlResult::Rows(r)) => r.rows.len(),
        };
        if got == self.row_count() {
            Ok(())
        } else {
            Err(format!("{got} rows, the model says {}", self.row_count()))
        }
    }

    /// The full check made during warm-up: row for row for the point
    /// templates, count plus per-row invariants for the analytic ones.
    pub fn check_full(&self, result: &SparqlResult) -> Result<(), String> {
        self.check_count(result)?;
        let Some(table) = result.rows() else {
            return Ok(());
        };
        let distinct = || {
            let mut rows = render_rows(result);
            let before = rows.len();
            rows.dedup();
            if rows.len() == before {
                Ok(())
            } else {
                Err("duplicate rows".to_string())
            }
        };
        match self {
            Expect::Rows(want) => {
                let got = render_rows(result);
                if &got != want {
                    return Err(format!("rows differ: got {got:?}, the model says {want:?}"));
                }
            }
            Expect::Ask(_) => {}
            Expect::AgeRange { lo, hi, .. } => {
                let mut last = usize::MAX;
                for row in &table.rows {
                    let age: usize = row[2]
                        .as_ref()
                        .map(render_term)
                        .and_then(|a| a.parse().ok())
                        .ok_or("age column is not a number")?;
                    if !(*lo..*hi).contains(&age) {
                        return Err(format!("age {age} escapes FILTER {lo}..{hi}"));
                    }
                    if age > last {
                        return Err("ORDER BY DESC(?a) not respected".into());
                    }
                    last = age;
                }
                distinct()?;
            }
            Expect::Count(_) => distinct()?,
            Expect::NickOpt { bound, .. } => {
                let got = table.rows.iter().filter(|r| r[1].is_some()).count();
                if got != *bound {
                    return Err(format!("{got} nicknames bound, the model says {bound}"));
                }
                distinct()?;
            }
        }
        Ok(())
    }
}

/// FNV-1a over the rendered rows of a result, folded into `acc`.
pub fn fold_checksum(acc: u64, result: &SparqlResult) -> u64 {
    let mut h = acc ^ FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a(h, bytes);
    match result {
        SparqlResult::Boolean(b) => eat(&[u8::from(*b)]),
        SparqlResult::Rows(_) => {
            for row in render_rows(result) {
                for cell in row {
                    eat(cell.as_deref().unwrap_or("\u{0}").as_bytes());
                    eat(&[0x1f]);
                }
                eat(&[0x1e]);
            }
        }
    }
    h
}

/// One slot of the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Slot {
    /// Hot key `key` of template number `template`.
    Hot {
        /// Index into the workload's template list.
        template: usize,
        /// Index into the template's hot set.
        key: usize,
    },
    /// The next cold key of template number `template`.
    Cold {
        /// Index into the workload's template list.
        template: usize,
    },
}

/// The keys of one template: a hot set and a sequence of cold keys.
struct KeySpace {
    template: Template,
    hot: Vec<Arc<Op>>,
    cold: Vec<Key>,
    next_cold: usize,
}

/// How a workload draws its operations.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// The templates.
    pub templates: &'static [Template],
    /// Slots per block of each template.
    pub weights: &'static [usize],
    /// Hot keys per template.
    pub hot_keys: usize,
}

/// Produces the operations of a trial, pass by pass.
pub struct OpSource {
    spaces: Vec<KeySpace>,
    block: Vec<Slot>,
}

impl OpSource {
    /// Lays out hot sets, cold sequences and the block for `seed`.
    pub fn new(data: &Dataset, model: &Model, seed: u64, mix: Mix) -> OpSource {
        let films: Vec<&str> = data
            .films
            .iter()
            .flatten()
            .map(|f| f.iri.as_str())
            .collect();
        let persons: Vec<&str> = data
            .people
            .iter()
            .flat_map(|p| {
                std::iter::once(p.iri.as_str()).chain(p.aliases.iter().map(|(_, a)| a.as_str()))
            })
            .collect();
        let mut spaces = Vec::new();
        for (t, &template) in mix.templates.iter().enumerate() {
            let mut rng = Rng::new(seed, 100 + t as u64);
            let shuffled = |rng: &mut Rng, items: &[&str]| -> Vec<String> {
                let mut v: Vec<String> = items.iter().map(|s| s.to_string()).collect();
                rng.shuffle(&mut v);
                v
            };
            let keys: Vec<Key> = match template {
                Template::CastHub | Template::AgeOpt => shuffled(&mut rng, &films)
                    .into_iter()
                    .map(Key::Film)
                    .collect(),
                Template::FilmsOf => shuffled(&mut rng, &persons)
                    .into_iter()
                    .map(Key::Person)
                    .collect(),
                Template::AskCast => shuffled(&mut rng, &films)
                    .into_iter()
                    .enumerate()
                    .map(|(i, film)| {
                        // Even keys ask about a cast member, odd keys
                        // about somebody who is not one.
                        let person = if i % 2 == 0 {
                            let cast = model.cast_hub(&film);
                            cast[rng.below(cast.len())][0].clone().expect("bound")
                        } else {
                            loop {
                                let x = persons[rng.below(persons.len())];
                                if !model.ask_cast(&film, x) {
                                    break x.to_string();
                                }
                            }
                        };
                        Key::Pair(film, person)
                    })
                    .collect(),
                Template::AgeRange | Template::Costar | Template::UnionCast => {
                    let mut years: Vec<usize> = (YEAR_MIN..YEAR_MIN + data.scale.years).collect();
                    rng.shuffle(&mut years);
                    years.into_iter().map(Key::Year).collect()
                }
                Template::NickOptScan => {
                    let mut ages: Vec<usize> = (AGE_MIN..AGE_MIN + AGES).collect();
                    rng.shuffle(&mut ages);
                    ages.into_iter().map(Key::Age).collect()
                }
            };
            // The hot set is a stratified sample: the candidates are
            // ranked by how much their answer holds and every
            // `pool / hot_n`-th is taken, so that each seed's hot set has
            // the population's spread of answer sizes (and, for
            // `ask_cast`, its half-and-half of outcomes) instead of a
            // lucky or unlucky draw. The rest stay cold, in shuffled order.
            let hot_n = mix.hot_keys.min(keys.len() / 2);
            let pool = (hot_n * HOT_POOL_FACTOR).min(keys.len() / 2);
            let mut ranked: Vec<usize> = (0..pool).collect();
            ranked.sort_by_key(|&i| answer_size(model, template, &keys[i]));
            let picked: Vec<usize> = (0..hot_n)
                .map(|i| ranked[(2 * i + 1) * pool / (2 * hot_n)])
                .collect();
            let hot = picked
                .iter()
                .map(|&i| {
                    Arc::new(Op {
                        template,
                        cold: false,
                        text: render(template, &keys[i]),
                        expect: expect(model, template, &keys[i]),
                    })
                })
                .collect();
            let cold = keys
                .iter()
                .enumerate()
                .filter(|(i, _)| !picked.contains(i))
                .map(|(_, key)| key.clone())
                .collect();
            spaces.push(KeySpace {
                template,
                hot,
                cold,
                next_cold: 0,
            });
        }

        let mut rng = Rng::new(seed, 99);
        let mut block = Vec::new();
        for (t, &weight) in mix.weights.iter().enumerate() {
            let hot_slots = (weight * HOT_PERCENT + 50) / 100;
            for _ in 0..hot_slots {
                block.push(Slot::Hot {
                    template: t,
                    key: rng.below(spaces[t].hot.len()),
                });
            }
            block.extend((hot_slots..weight).map(|_| Slot::Cold { template: t }));
        }
        rng.shuffle(&mut block);
        OpSource { spaces, block }
    }

    /// The hot operations of template number `t`.
    pub fn hot(&self, t: usize) -> &[Arc<Op>] {
        &self.spaces[t].hot
    }

    /// The operations of the next pass over the block, or `None` once a
    /// template has no unused cold key left for it.
    pub fn next_pass(&mut self, model: &Model) -> Option<Vec<Arc<Op>>> {
        let mut need = vec![0usize; self.spaces.len()];
        for slot in &self.block {
            if let Slot::Cold { template } = slot {
                need[*template] += 1;
            }
        }
        if self
            .spaces
            .iter()
            .zip(&need)
            .any(|(s, n)| s.next_cold + n > s.cold.len())
        {
            return None;
        }
        let mut ops = Vec::with_capacity(self.block.len());
        for slot in &self.block {
            ops.push(match *slot {
                Slot::Hot { template, key } => self.spaces[template].hot[key].clone(),
                Slot::Cold { template } => {
                    let space = &mut self.spaces[template];
                    let key = &space.cold[space.next_cold];
                    space.next_cold += 1;
                    Arc::new(Op {
                        template: space.template,
                        cold: true,
                        text: render(space.template, key),
                        expect: expect(model, space.template, key),
                    })
                }
            });
        }
        Some(ops)
    }
}
